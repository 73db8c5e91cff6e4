package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestSmoke runs one pass of all four workloads at test-sized inputs
// (8 generated programs), end to end and traced, and checks that every
// metric the benchmark names comes out, finite, with no failed
// operation — so `go test` exercises the whole benchmark without the
// long run.
func TestSmoke(t *testing.T) {
	// Time every call: with a handful of calls per boundary, 1-in-64
	// sampling could leave a histogram empty and its percentile NaN.
	saved := samplePeriod
	for b := range samplePeriod {
		samplePeriod[b] = 1
	}
	defer func() { samplePeriod = saved }()

	start := time.Now()
	var spans bytes.Buffer
	sink := newSpanSink(&spans)
	r := &report{Schema: reportSchema, Env: newEnv(1, true)}
	for _, def := range workloads {
		w := newWorkloadReport(def)
		for _, traced := range []bool{false, true} {
			if err := runWorkload(def, options{seed: 1, small: true, workers: 2, passes: 1}, traced, sink, w); err != nil {
				t.Fatal(err)
			}
		}
		if w.Failed != 0 || w.FailedShare != 0 || w.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", def.name, w.Attempted, w.Failed)
		}
		check := func(kind string, defs []metricDef, got []metricValue, positive bool) {
			byName := map[string]metricValue{}
			for _, v := range got {
				byName[v.Name] = v
			}
			for _, d := range defs {
				v, ok := byName[d.name]
				switch {
				case !ok:
					t.Errorf("%s: %s metric %s missing", def.name, kind, d.name)
				case !finite(float64(v.Value)) || positive && v.Value <= 0:
					t.Errorf("%s: %s metric %s = %v", def.name, kind, d.name, v.Value)
				case v.Unit != d.unit:
					t.Errorf("%s: %s metric %s has unit %q, want %q", def.name, kind, d.name, v.Unit, d.unit)
				}
			}
		}
		check("end-to-end", endToEndDefs, w.EndToEnd, true)
		check("per-layer", perLayerDefs, w.PerLayer, false)
		for _, traced := range []bool{false, true} {
			if line := newDriverLine(w, traced); !line.Correct {
				t.Errorf("%s: result object (traced %v) not correct: %+v", def.name, traced, line)
			}
		}
		r.Workloads = append(r.Workloads, *w)
	}
	if err := sink.flush(); err != nil {
		t.Fatal(err)
	}
	if spans.Len() == 0 {
		t.Error("the traced runs kept no spans")
	}
	for i, line := range bytes.Split(bytes.TrimSpace(spans.Bytes()), []byte("\n")) {
		if i == 2000 {
			break // enough to cover whole span trees of the first cells
		}
		var s struct {
			ID, Trace, Parent int
			Name              string
		}
		if err := json.Unmarshal(line, &s); err != nil || s.ID != i || s.Parent >= s.ID || s.Name == "" {
			t.Fatalf("span line %d: %s (%v)", i, line, err)
		}
	}

	// The result file round-trips, and a set compared with itself has
	// no row worse.
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if worse, _ := compareReports(&table, r, &back); worse != 0 {
		t.Errorf("a result file compared with itself has %d rows worse:\n%s", worse, table.String())
	}
	t.Logf("smoke run took %v", time.Since(start))
}

// TestContract checks that BENCHMARK.json at the repository root names
// exactly the workloads and metrics this program reports, with the same
// units and bounds.
func TestContract(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no contract beside the benchmark: %v", err)
	}
	var c struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != runSeconds {
		t.Errorf("contract runs %d s, the program's pass counts are sized for %d s", c.RunSeconds, runSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("contract has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: contract %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(c.EndToEnd) != len(endToEndDefs) || len(c.PerLayer) != len(perLayerDefs) {
		t.Fatalf("contract has %d + %d metrics, the program %d + %d", len(c.EndToEnd), len(c.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	for i, m := range c.EndToEnd {
		if d := endToEndDefs[i]; m.Name != d.name || m.Unit != d.unit || m.Bound != d.bound || m.Better != better(d) {
			t.Errorf("end-to-end metric %d: contract %+v, program %+v", i, m, d)
		}
	}
	for i, m := range c.PerLayer {
		if d := perLayerDefs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != better(d) {
			t.Errorf("per-layer metric %d: contract %+v, program %+v", i, m, d)
		}
	}
}

func TestStats(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 1.5 {
		t.Errorf("q1 = %v, want 1.5", got)
	}
	forty := make([]float64, 40)
	for i := range forty {
		forty[i] = float64(i)
	}
	if p, _ := tailPercentile(forty); p != 75 {
		t.Errorf("tail percentile at 40 samples = p%d, want p75", p)
	}
	if p, _ := tailPercentile(xs); p != 50 {
		t.Errorf("tail percentile at 5 samples = p%d, want p50", p)
	}
	if got := geomean([]float64{2, 8}); got != 4 {
		t.Errorf("geomean = %v, want 4", got)
	}
}

// TestSpanNesting checks the lane's nesting on a made-up span tree: a
// call inside a timed span is timed and names that span as its parent,
// and each boundary counts its own calls.
func TestSpanNesting(t *testing.T) {
	saved := samplePeriod
	for b := range samplePeriod {
		samplePeriod[b] = 1
	}
	defer func() { samplePeriod = saved }()

	tr := newTracer("test", "p", true)
	l := tr.lanes[0]
	tr.begin()
	if !l.enter(bClose) {
		t.Fatal("period 1 must time every call")
	}
	for i := 0; i < 3; i++ {
		if !l.enterNested(bPrecedes) {
			t.Fatal("a call inside a timed span must be timed")
		}
		time.Sleep(time.Millisecond)
		l.exit()
	}
	l.exit()
	tr.finish()
	st := tr.stats()
	cl, pr := &st[bClose], &st[bPrecedes]
	if cl.Count != 1 || cl.Sampled != 1 || pr.Count != 3 || pr.Sampled != 3 {
		t.Fatalf("counts: close %d/%d precedes %d/%d", cl.Count, cl.Sampled, pr.Count, pr.Sampled)
	}
	if pr.Busy < 3e6 || cl.Busy < pr.Busy {
		t.Errorf("busy: close %d ns, precedes %d ns", cl.Busy, pr.Busy)
	}
	if n := len(l.spans); n != 4 || l.spans[1].parent != 0 || l.spans[0].parent != -1 {
		t.Errorf("spans: %+v", l.spans)
	}
}
