package obsv

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// count registers a source over a local atomic, as components publish
// their own counters, and returns the atomic.
func count(r *Registry, name string) *atomic.Int64 {
	c := new(atomic.Int64)
	r.RegisterFunc(name, c.Load)
	return c
}

func TestRegistryCountersAndFuncs(t *testing.T) {
	r := NewRegistry()
	c := count(r, "a.count")
	c.Add(1)
	c.Add(4)
	v := int64(7)
	r.RegisterFunc("b.gauge", func() int64 { return v })

	snap := r.Snapshot()
	want := map[string]int64{"a.count": 5, "b.gauge": 7}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("Snapshot = %v, want %v", snap, want)
	}
	v = 9
	if got := r.Snapshot()["b.gauge"]; got != 9 {
		t.Fatalf("func gauge not re-evaluated: got %d, want 9", got)
	}
	if got, want := r.Names(), []string{"a.count", "b.gauge"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
}

func TestRegistryLastRegistrationWins(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc("x", func() int64 { return 1 })
	r.RegisterFunc("x", func() int64 { return 2 })
	if got := r.Snapshot()["x"]; got != 2 {
		t.Fatalf("re-registered func: got %d, want 2", got)
	}
	count(r, "x").Add(5)
	if got := r.Snapshot()["x"]; got != 5 {
		t.Fatalf("counter replacing func: got %d, want 5", got)
	}
	if n := len(r.Snapshot()); n != 1 {
		t.Fatalf("name registered twice appears %d times in snapshot", n)
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	r := NewRegistry()
	count(r, "z.last").Add(3)
	count(r, "a.first").Add(1)
	r.RegisterFunc(`weird "name"`, func() int64 { return -2 })

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got map[string]int64
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v\n%s", err, buf.String())
	}
	want := map[string]int64{"a.first": 1, "z.last": 3, `weird "name"`: -2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WriteJSON round-trip = %v, want %v", got, want)
	}
	// Keys are emitted sorted, expvar-style.
	if strings.Index(buf.String(), "a.first") > strings.Index(buf.String(), "z.last") {
		t.Fatalf("WriteJSON keys not sorted:\n%s", buf.String())
	}
}

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	count(r, "reach.queries").Add(42)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "reach.queries") || !strings.Contains(buf.String(), "42") {
		t.Fatalf("WriteText output missing entry:\n%s", buf.String())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	shared := count(r, "shared")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.RegisterFunc("shared", shared.Load)
				shared.Add(1)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot()["shared"]; got != 4000 {
		t.Fatalf("shared counter = %d, want 4000", got)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	count(r, "hist.races").Add(2)
	h := Handler(r)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var snap map[string]int64
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/stats is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	if snap["hist.races"] != 2 {
		t.Fatalf("/stats snapshot = %v, want hist.races=2", snap)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var vars map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if _, ok := vars["sforder"]; !ok {
		t.Fatalf("/debug/vars does not publish the registry under \"sforder\"")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/ status = %d, want 200", rec.Code)
	}
}

// TestHandlerRebuiltForNewRegistry: expvar names are process-global, so
// building handlers for successive runs must not panic and /debug/vars
// must reflect the latest registry.
func TestHandlerRebuiltForNewRegistry(t *testing.T) {
	r1 := NewRegistry()
	count(r1, "gen").Add(1)
	_ = Handler(r1)
	r2 := NewRegistry()
	count(r2, "gen").Add(2)
	h := Handler(r2)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var vars struct {
		Sforder map[string]int64 `json:"sforder"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	if vars.Sforder["gen"] != 2 {
		t.Fatalf("expvar serves stale registry: gen = %d, want 2", vars.Sforder["gen"])
	}
}
