package harness_test

import (
	"testing"

	"sforder/internal/engine"
	"sforder/internal/harness"
	"sforder/internal/obsv"
	"sforder/internal/workload"
)

// TestFastPathLockReduction is the PR's acceptance criterion: on mm and
// hw in full mode, hist.lock_acquires with the fast path on must be at
// most 1/5 of the fast path off (the batch amortization factor on
// loop-heavy workloads is far larger in practice).
func TestFastPathLockReduction(t *testing.T) {
	for _, bench := range []*workload.Benchmark{workload.MM(32, 8), workload.HW(2, 8, 128)} {
		locks := map[bool]int64{}
		for _, fast := range []bool{false, true} {
			res, err := harness.Run(bench, harness.Config{Mode: harness.Full, Config: engine.Config{
				Serial: true, LockedHistory: !fast, Stats: obsv.NewRegistry(),
			}})
			if err != nil {
				t.Fatalf("%s fastpath=%v: %v", bench.Name, fast, err)
			}
			if res.RaceCount != 0 {
				t.Fatalf("%s fastpath=%v: benchmark must be race-free, got %d races", bench.Name, fast, res.RaceCount)
			}
			locks[fast] = res.Stats["hist.lock_acquires"]
		}
		if locks[false] == 0 {
			t.Fatalf("%s: no lock acquisitions counted with fast path off", bench.Name)
		}
		if locks[true]*5 > locks[false] {
			t.Errorf("%s: lock acquires %d (on) vs %d (off): want ≤ 1/5", bench.Name, locks[true], locks[false])
		}
	}
}

// TestFastPathParallelAgreesWithSerial: the fast path must produce the
// same (zero) race verdicts in parallel full mode on the paper
// benchmarks, with fastpath counters flowing through the registry.
func TestFastPathParallelAgreesWithSerial(t *testing.T) {
	bench := workload.MM(32, 8)
	res, err := harness.Run(bench, harness.Config{Mode: harness.Full, Config: engine.Config{
		Workers: 4, Stats: obsv.NewRegistry(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount != 0 {
		t.Fatalf("mm must be race-free, got %d races", res.RaceCount)
	}
	if res.Stats["hist.batch_flushes"] == 0 {
		t.Error("hist.batch_flushes missing from the registry snapshot")
	}
}

// TestZeroConfigIsTheShippingHistory is the harness twin of the public
// API's test of the same name: a Config that names nothing but the mode
// (and the registry the counters are read from) runs the strand-buffered
// history, so on hw every page-lock acquisition is one batch flush and
// there are far fewer of them than accesses. Fig3/4/5 build their cells
// from such literals; this is what makes them measure what ships.
func TestZeroConfigIsTheShippingHistory(t *testing.T) {
	res, err := harness.Run(workload.HW(2, 8, 128), harness.Config{
		Mode: harness.Full, Config: engine.Config{Stats: obsv.NewRegistry()},
	})
	if err != nil {
		t.Fatal(err)
	}
	locks, flushes := res.Stats["hist.lock_acquires"], res.Stats["hist.batch_flushes"]
	accesses := res.Stats["sched.reads"] + res.Stats["sched.writes"]
	if flushes == 0 || locks != flushes {
		t.Errorf("zero Config: %d page-lock acquisitions, %d batch flushes: want one per flush", locks, flushes)
	}
	if locks*5 > accesses {
		t.Errorf("zero Config: %d page-lock acquisitions for %d accesses: the history is not strand-buffered", locks, accesses)
	}
}
