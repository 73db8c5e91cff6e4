package harness_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sforder/internal/engine"
	"sforder/internal/harness"
	"sforder/internal/workload"
)

func TestReportJSONRoundTrip(t *testing.T) {
	rows, err := harness.Fig3([]*workload.Benchmark{workload.MM(16, 8)}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := &harness.Report{
		Env:  harness.Env{GOMAXPROCS: 1, Workers: 2, Repeats: 1, Scale: "test"},
		Fig3: rows,
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if decoded["env"] == nil || decoded["fig3"] == nil {
		t.Errorf("missing keys: %s", buf.String())
	}
	if decoded["fig4"] != nil {
		t.Error("unmeasured artifacts must be omitted")
	}
}

func TestFig4RowJSONCells(t *testing.T) {
	rows, err := harness.Fig4([]*workload.Benchmark{workload.MM(16, 8)}, 2, 1, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(rows[0])
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	for _, want := range []string{
		`"bench":"mm"`,
		`"base_t1_seconds"`,
		"MultiBags/reach/T1",
		"SF-Order/full/TP",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig4 JSON missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "MultiBags/reach/TP") {
		t.Error("MultiBags must have no TP cell")
	}
	// Exactly 10 cells: 2 modes × (MultiBags T1 + 2 detectors × 2 P).
	if n := strings.Count(s, `"config"`); n != 10 {
		t.Errorf("cells = %d, want 10", n)
	}
}
