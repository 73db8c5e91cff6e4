package harness_test

import (
	"bytes"
	"strings"
	"testing"

	"sforder/internal/detect"
	"sforder/internal/engine"
	"sforder/internal/harness"
	"sforder/internal/workload"
)

func testBenches() []*workload.Benchmark {
	return []*workload.Benchmark{workload.MM(16, 8), workload.Ferret(4, 32)}
}

func TestRunAllDetectorModes(t *testing.T) {
	b := workload.MM(16, 8)
	cases := []engine.Config{
		{Detector: engine.NoDetector, Serial: true},
		{Detector: engine.NoDetector, Workers: 2},
		{ReachabilityOnly: true, Serial: true},
		{Workers: 2},
		{Workers: 2, LockedHistory: true},
		{Serial: true, Policy: detect.ReadersLR},
		{Detector: engine.FOrder, ReachabilityOnly: true, Workers: 2},
		{Detector: engine.FOrder, Serial: true},
		{Detector: engine.MultiBags, ReachabilityOnly: true, Serial: true},
		{Detector: engine.MultiBags, Serial: true},
	}
	for _, cfg := range cases {
		level := harness.Level(cfg)
		res, err := harness.Run(b, cfg)
		if err != nil {
			t.Fatalf("%v/%s: %v", cfg.Detector, level, err)
		}
		if res.RaceCount != 0 {
			t.Errorf("%v/%s: unexpected races", cfg.Detector, level)
		}
		if level != "base" && res.ReachMem <= 0 {
			t.Errorf("%v/%s: no reach memory accounted", cfg.Detector, level)
		}
		if level == "full" && res.Queries == 0 {
			t.Errorf("%v/%s: no queries served", cfg.Detector, level)
		}
	}
}

func TestLRPolicyRequiresSFOrder(t *testing.T) {
	_, err := harness.Run(workload.MM(16, 8), engine.Config{Detector: engine.FOrder, Serial: true, Policy: detect.ReadersLR})
	if err == nil {
		t.Fatal("ReadersLR with F-Order must be rejected")
	}
}

func TestFig3(t *testing.T) {
	rows, err := harness.Fig3(testBenches(), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Reads == 0 || r.Writes == 0 || r.Queries == 0 || r.Futures == 0 || r.Nodes == 0 {
			t.Errorf("incomplete row: %+v", r)
		}
	}
	var buf bytes.Buffer
	harness.PrintFig3(&buf, rows)
	out := buf.String()
	for _, want := range []string{"bench", "mm", "ferret", "# queries"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4(t *testing.T) {
	rows, err := harness.Fig4(testBenches()[:1], 2, 1, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.BaseT1 <= 0 {
		t.Error("base T1 not measured")
	}
	if len(row.ByConfig) != 10 {
		t.Errorf("expected 10 cells (2 modes × [MB-T1 + 2 detectors × 2 P]), got %d", len(row.ByConfig))
	}
	var buf bytes.Buffer
	harness.PrintFig4(&buf, rows)
	out := buf.String()
	for _, want := range []string{"reach", "full", "SF-Order(T1)", "mm"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig5(t *testing.T) {
	rows, err := harness.Fig5(testBenches(), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FOrderMB <= 0 || r.SFOrderMB <= 0 {
			t.Errorf("memory not measured: %+v", r)
		}
	}
	var buf bytes.Buffer
	harness.PrintFig5(&buf, rows)
	if !strings.Contains(buf.String(), "SF/F ratio") {
		t.Error("Fig5 output malformed")
	}
}

func TestFig5SFOrderSmallerOnFutureHeavy(t *testing.T) {
	// The headline qualitative claim of Figure 5: SF-Order's bitmaps
	// are much smaller than F-Order's hash tables on future-heavy runs.
	rows, err := harness.Fig5([]*workload.Benchmark{workload.SW(64, 8)}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].SFOrderMB >= rows[0].FOrderMB {
		t.Errorf("SF-Order (%0.3f MB) should use less reachability memory than F-Order (%0.3f MB)",
			rows[0].SFOrderMB, rows[0].FOrderMB)
	}
}

func TestAblationReaderPolicy(t *testing.T) {
	rows, err := harness.AblationReaderPolicy(testBenches()[:1], 1, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].AllSeconds <= 0 || rows[0].LRSeconds <= 0 {
		t.Error("ablation not measured")
	}
	var buf bytes.Buffer
	harness.PrintAblation(&buf, rows)
	if !strings.Contains(buf.String(), "lr: time(s)") {
		t.Error("ablation output malformed")
	}
}

func TestRunBestPicksMinimum(t *testing.T) {
	res, err := harness.RunBest(workload.MM(16, 8), engine.Config{Detector: engine.NoDetector, Serial: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time")
	}
}

func TestStrings(t *testing.T) {
	for want, cfg := range map[string]engine.Config{
		"base":  {Detector: engine.NoDetector, ReachabilityOnly: true},
		"reach": {Detector: engine.FOrder, ReachabilityOnly: true},
		"full":  {},
	} {
		if got := harness.Level(cfg); got != want {
			t.Errorf("Level(%+v) = %q, want %q", cfg, got, want)
		}
	}
	if harness.DefaultWorkers() < 2 {
		t.Error("DefaultWorkers < 2")
	}
}
