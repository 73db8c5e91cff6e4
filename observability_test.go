package sforder_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"sforder"
	"sforder/internal/obsv"
	"sforder/internal/replay"
	"sforder/internal/trace"
)

// TestPartialResultOnPanic proves the satellite fix: a racy program that
// panics in a parallel worker must still report the races it exposed
// before crashing. The interleaving is pinned: the spawned child spins
// until the continuation's write is recorded, then writes the same
// address (detecting the race) and panics.
func TestPartialResultOnPanic(t *testing.T) {
	var parentWrote atomic.Bool
	res, err := sforder.Run(sforder.Config{Detector: sforder.SFOrder, Workers: 2}, func(t *sforder.Task) {
		t.Spawn(func(c *sforder.Task) {
			for !parentWrote.Load() {
				runtime.Gosched()
			}
			c.Write(100) // races with the continuation's write below
			panic("deliberate worker crash")
		})
		t.Write(100)
		parentWrote.Store(true)
		t.Sync()
	})
	if err == nil {
		t.Fatal("worker panic did not surface as an error")
	}
	if res == nil {
		t.Fatal("partial result dropped on worker panic")
	}
	if res.RaceCount == 0 || len(res.Races) == 0 {
		t.Fatalf("races detected before the crash were lost: %+v", res)
	}
	if res.Races[0].Addr != 100 {
		t.Errorf("wrong race record: %v", res.Races[0])
	}
	if res.Strands == 0 {
		t.Errorf("partial result carries no counts: %+v", res)
	}
}

// TestPartialResultCarriesStats checks the partial result also carries
// the registry snapshot accumulated before the abort.
func TestPartialResultCarriesStats(t *testing.T) {
	res, err := sforder.Run(sforder.Config{Detector: sforder.SFOrder, Workers: 2, Stats: true}, func(t *sforder.Task) {
		t.Write(7)
		t.Spawn(func(c *sforder.Task) { panic("boom") })
		t.Sync()
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if res == nil || res.Stats == nil {
		t.Fatalf("stats snapshot missing from partial result: %+v", res)
	}
	if res.Stats["sched.writes"] == 0 {
		t.Errorf("pre-crash writes missing from snapshot: %v", res.Stats)
	}
}

// racyLoop spawns n children that each write the same address, plus a
// write in the continuation — n distinct racing strand pairs on one
// location.
func racyLoop(cfg sforder.Config, n int) (*sforder.Result, error) {
	return sforder.Run(cfg, func(t *sforder.Task) {
		for i := 0; i < n; i++ {
			t.Spawn(func(c *sforder.Task) { c.Write(42) })
		}
		t.Write(42)
		t.Sync()
	})
}

func TestDedupByAddr(t *testing.T) {
	res, err := racyLoop(sforder.Config{Detector: sforder.SFOrder, Serial: true, DedupByAddr: true}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 1 {
		t.Fatalf("dedup kept %d records for one address: %v", len(res.Races), res.Races)
	}
	if res.RaceCount <= 1 {
		t.Errorf("RaceCount should still count every race: %d", res.RaceCount)
	}

	full, err := racyLoop(sforder.Config{Detector: sforder.SFOrder, Serial: true}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Races) <= 1 {
		t.Fatalf("without dedup expected multiple records, got %d", len(full.Races))
	}
	if full.RaceCount != res.RaceCount {
		t.Errorf("dedup changed RaceCount: %d vs %d", res.RaceCount, full.RaceCount)
	}
}

func TestStatsSnapshot(t *testing.T) {
	for _, det := range []sforder.Detector{sforder.SFOrder, sforder.FOrder, sforder.MultiBags, sforder.WSPOrder} {
		cfg := sforder.Config{Detector: det, Serial: true, Stats: true}
		res, err := sforder.Run(cfg, func(t *sforder.Task) {
			t.Spawn(func(c *sforder.Task) { c.Write(1) })
			t.Write(1)
			t.Sync()
			if det != sforder.WSPOrder {
				h := t.Create(func(c *sforder.Task) any { c.Read(2); return nil })
				t.Get(h)
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", det, err)
		}
		if res.Stats == nil {
			t.Fatalf("%v: Stats nil with Config.Stats set", det)
		}
		for _, key := range []string{"sched.strands", "sched.spawns", "sched.writes", "reach.queries", "reach.mem_bytes", "hist.races", "hist.lock_acquires", "hist.fastpath_hits", "hist.mem_bytes", "hist.group_ops", "hist.state_splits", "hist.states"} {
			if _, ok := res.Stats[key]; !ok {
				t.Errorf("%v: snapshot missing %q: %v", det, key, res.Stats)
			}
		}
		if got := res.Stats["sched.strands"]; got != int64(res.Strands) {
			t.Errorf("%v: sched.strands %d != Result.Strands %d", det, got, res.Strands)
		}
		if got := res.Stats["reach.queries"]; got != int64(res.Queries) {
			t.Errorf("%v: reach.queries %d != Result.Queries %d", det, got, res.Queries)
		}
		if got := res.Stats["hist.races"]; got != int64(res.RaceCount) {
			t.Errorf("%v: hist.races %d != Result.RaceCount %d", det, got, res.RaceCount)
		}
		if res.Stats["hist.lock_acquires"] == 0 {
			t.Errorf("%v: lock acquisitions not counted", det)
		}
		// Address 1 is written twice and (but for WSP-Order) address 2 read
		// once, each a state of its own beside the untouched rest of the
		// page; the first touch of each splits it off.
		groups, states := int64(3), int64(3)
		if det == sforder.WSPOrder {
			groups, states = 2, 2
		}
		if got := res.Stats["hist.group_ops"]; got != groups {
			t.Errorf("%v: hist.group_ops %d, want %d", det, got, groups)
		}
		if got := res.Stats["hist.states"]; got != states {
			t.Errorf("%v: hist.states %d, want %d", det, got, states)
		}
		if det == sforder.SFOrder {
			// The root's child cp {0} and the get strand's gp {1}: two
			// sets, both a single run, so no residue.
			if got := res.Stats["reach.sets"]; got != 2 {
				t.Errorf("reach.sets %d, want 2", got)
			}
			if got, ok := res.Stats["reach.set_residue_bytes"]; !ok || got != 0 {
				t.Errorf("reach.set_residue_bytes %d (present %v), want 0", got, ok)
			}
		}
	}
}

func TestStatsOffByDefault(t *testing.T) {
	res, err := sforder.Run(sforder.Config{Serial: true}, func(t *sforder.Task) { t.Write(0) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != nil {
		t.Fatalf("Stats populated without Config.Stats: %v", res.Stats)
	}
}

// chromeTrace mirrors the Chrome trace-event JSON shape.
type chromeTrace struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		Ts    float64        `json:"ts"`
		Pid   uint64         `json:"pid"`
		Tid   uint64         `json:"tid"`
		Scope string         `json:"s"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestTraceChromeFormat validates the acceptance criterion: -trace
// output is well-formed Chrome trace JSON with B/E/i phases, balanced
// per strand.
func TestTraceChromeFormat(t *testing.T) {
	var buf bytes.Buffer
	res, err := sforder.Run(sforder.Config{Detector: sforder.SFOrder, Serial: true, Trace: &buf}, func(t *sforder.Task) {
		t.Spawn(func(c *sforder.Task) { c.Write(1) })
		t.Sync()
		h := t.Create(func(c *sforder.Task) any { c.Write(2); return 9 })
		t.Write(3)
		_ = t.Get(h)
	})
	if err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	phases := map[string]int{}
	instants := map[string]int{}
	beginsPerTid := map[uint64]int{}
	endsPerTid := map[uint64]int{}
	lastTs := -1.0
	for _, ev := range tr.TraceEvents {
		phases[ev.Phase]++
		switch ev.Phase {
		case "B":
			beginsPerTid[ev.Tid]++
		case "E":
			endsPerTid[ev.Tid]++
		case "i":
			instants[ev.Name]++
			if ev.Scope != "t" {
				t.Errorf("instant %q missing thread scope: %q", ev.Name, ev.Scope)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Phase)
		}
		if ev.Ts < 0 {
			t.Errorf("negative timestamp %v on %q", ev.Ts, ev.Name)
		}
		if ev.Ts > lastTs {
			lastTs = ev.Ts
		}
	}
	if phases["B"] == 0 || phases["E"] == 0 || phases["i"] == 0 {
		t.Fatalf("missing phases: %v", phases)
	}
	// A run to completion closes every strand slice it opened.
	for tid, b := range beginsPerTid {
		if e := endsPerTid[tid]; b != e {
			t.Errorf("strand %d: %d begins vs %d ends", tid, b, e)
		}
	}
	for _, name := range []string{"spawn", "sync", "create", "put", "get"} {
		if instants[name] == 0 {
			t.Errorf("missing %q instant: %v", name, instants)
		}
	}
	// The strand count in the trace matches the executed dag.
	if got := uint64(len(beginsPerTid)); got != res.Strands {
		t.Errorf("trace covers %d strands, dag has %d", got, res.Strands)
	}
}

// TestTraceParallelSteals checks that a parallel run's trace is still
// well-formed and records steal events on the scheduler row when work
// moves between workers.
func TestTraceParallelSteals(t *testing.T) {
	var buf bytes.Buffer
	var spin atomic.Bool
	_, err := sforder.Run(sforder.Config{Detector: sforder.NoDetector, Workers: 2, Trace: &buf}, func(t *sforder.Task) {
		t.Spawn(func(c *sforder.Task) { spin.Store(true) })
		// The spawning worker spins here, so only a thief can run the
		// child and release it — the trace must contain that steal.
		for !spin.Load() {
			runtime.Gosched()
		}
		t.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("parallel trace invalid: %v", err)
	}
	steals := 0
	for _, ev := range tr.TraceEvents {
		if ev.Name == "steal" {
			steals++
			if ev.Pid != 2 {
				t.Errorf("steal event on pid %d, want scheduler pid 2", ev.Pid)
			}
		}
	}
	if steals == 0 {
		t.Error("forced steal not recorded in trace")
	}
}

// TestStatsCatalogInREADME holds README's catalog to the registry: every
// name a run or a replay with stats publishes is in the Observability
// section, spelled out or as a leaf of its prefix's table row
// (om.english.splits is the om.* row's splits).
func TestStatsCatalogInREADME(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Observability\n")
	if !ok {
		t.Fatal(`README.md has no "## Observability" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]string{} // prefix → its table row
	for _, line := range strings.Split(section, "\n") {
		if prefix, ok := strings.CutPrefix(line, "| `"); ok {
			if prefix, _, ok = strings.Cut(prefix, ".*` |"); ok {
				rows[prefix] = line
			}
		}
	}
	check := func(what string, snap map[string]int64) {
		if len(snap) == 0 {
			t.Fatalf("%s: no stats", what)
		}
		for name := range snap {
			if strings.Contains(section, "`"+name+"`") {
				continue
			}
			prefix, _, _ := strings.Cut(name, ".")
			leaf := name[strings.LastIndex(name, ".")+1:]
			if !strings.Contains(rows[prefix], "`"+leaf+"`") {
				t.Errorf("%s publishes %s, which README's Observability section does not name", what, name)
			}
		}
	}
	program := func(futures bool) func(*sforder.Task) {
		return func(t *sforder.Task) {
			t.Spawn(func(c *sforder.Task) { c.Write(1) })
			t.Write(1)
			t.Sync()
			if futures {
				h := t.Create(func(c *sforder.Task) any { c.Read(2); return nil })
				t.Read(2)
				t.Get(h)
			}
		}
	}
	for _, c := range []struct {
		name string
		cfg  sforder.Config
	}{
		{"SF-Order", sforder.Config{Detector: sforder.SFOrder}},
		{"SF-Order/OM", sforder.Config{Detector: sforder.SFOrder, Reach: sforder.ReachOM}},
		{"F-Order", sforder.Config{Detector: sforder.FOrder}},
		{"MultiBags", sforder.Config{Detector: sforder.MultiBags}},
		{"WSP-Order", sforder.Config{Detector: sforder.WSPOrder}},
	} {
		for _, record := range []bool{false, true} {
			cfg := c.cfg
			cfg.Workers, cfg.Stats = 2, true
			var capture bytes.Buffer
			if record {
				cfg.Record = &capture
			}
			res, err := sforder.Run(cfg, program(cfg.Detector != sforder.WSPOrder))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			check(fmt.Sprintf("%s (record %v)", c.name, record), res.Stats)
			if !record || cfg.Detector != sforder.SFOrder {
				continue
			}
			loaded, err := trace.Load(bytes.NewReader(capture.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for _, stream := range []bool{false, true} {
				reg := obsv.NewRegistry()
				opts := replay.Options{Workers: 2, Reach: cfg.Reach, Stats: reg}
				if stream {
					_, err = replay.RunStream(bytes.NewReader(capture.Bytes()), opts)
				} else {
					_, err = replay.Run(loaded, opts)
				}
				if err != nil {
					t.Fatalf("%s replay (stream %v): %v", c.name, stream, err)
				}
				check(fmt.Sprintf("%s replay (stream %v)", c.name, stream), reg.Snapshot())
			}
		}
	}
}
