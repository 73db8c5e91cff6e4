package detect_test

import (
	"testing"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/progen"
	"sforder/internal/sched"
)

// TestDequeAblationParallelAgreement extends the knob-grid fuzz to the
// PR 5 scheduler ablation: on random programs at 4 workers, the
// racy-location set must be identical to the serial exhaustive oracle
// whether jobs move through the lock-free Chase–Lev deques or the
// mutex-deque ablation. The two schedulers produce different steal
// interleavings (and the lock-free one different park/wake timings), so
// agreement here pins that scheduling nondeterminism never changes
// detection verdicts. Repeats catch schedule-dependent misbehavior.
func TestDequeAblationParallelAgreement(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 5})
		want := runOracle(t, p)
		for _, lockDeque := range []bool{false, true} {
			for rep := 0; rep < 2; rep++ {
				reach := core.New(core.Config{})
				hist := detect.NewHistory(detect.Options{Reach: reach, FastPath: true})
				_, err := sched.Run(sched.Options{
					Workers: 4, LockDeque: lockDeque,
					Tracer: reach, Checker: hist,
				}, p.Main())
				if err != nil {
					t.Fatal(err)
				}
				if got := hist.RacyAddrs(); !sameAddrs(got, want) {
					t.Fatalf("seed %d lockdeque=%v rep %d: parallel %v, oracle %v",
						seed, lockDeque, rep, got, want)
				}
			}
		}
	}
}
