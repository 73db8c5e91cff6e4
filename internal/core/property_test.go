package core_test

import (
	"testing"
	"testing/quick"

	"sforder/internal/core"
	"sforder/internal/dag"
	"sforder/internal/detect"
	"sforder/internal/oracle"
	"sforder/internal/progen"
	"sforder/internal/sched"
)

// TestQuickPrecedesIsStrictPartialOrder: on random structured-future
// programs, SF-Order's Precedes must be irreflexive-compatible
// (Precedes(u,u) is defined as true by the detector convention, so we
// test over distinct strands), asymmetric, and transitive — the axioms
// of dag reachability.
func TestQuickPrecedesIsStrictPartialOrder(t *testing.T) {
	f := func(seed int64, depth, ops uint8) bool {
		p := progen.New(progen.Config{
			Seed:     seed,
			MaxDepth: 1 + int(depth%4),
			MaxOps:   1 + int(ops%7),
		})
		r := core.New(core.Config{})
		rec := dag.NewRecorder()
		if _, err := sched.Run(sched.Options{Serial: true, Tracer: sched.MultiTracer{r, rec}}, p.Main()); err != nil {
			return false
		}
		strands := rec.Strands()
		if len(strands) > 28 {
			strands = strands[:28]
		}
		for _, u := range strands {
			for _, v := range strands {
				if u == v {
					continue
				}
				uv := r.Precedes(u, v)
				vu := r.Precedes(v, u)
				if uv && vu {
					return false // asymmetry violated
				}
				if !uv {
					continue
				}
				for _, w := range strands {
					if w == u || w == v {
						continue
					}
					if r.Precedes(v, w) && !r.Precedes(u, w) {
						return false // transitivity violated
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGpMonotone: gp(v) only ever grows along real-dag edges —
// every future recorded at a strand is recorded at its dag successors.
func TestQuickGpMonotone(t *testing.T) {
	f := func(seed int64) bool {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 7})
		r := core.New(core.Config{})
		rec := dag.NewRecorder()
		if _, err := sched.Run(sched.Options{Serial: true, Tracer: sched.MultiTracer{r, rec}}, p.Main()); err != nil {
			return false
		}
		cl := dag.NewClosure(rec.G)
		strands := rec.Strands()
		futures := rec.G.Futures()
		// For every gotten future F and strand v: Precedes(last(F)
		// successor set) must be upward closed — if last(F) reaches v
		// and v reaches w, the detector must also order last(F) before w.
		for _, f := range futures {
			if f.ID == 0 || f.Got == nil {
				continue
			}
			for _, v := range strands {
				for _, w := range strands {
					if v == w {
						continue
					}
					nv, nw := rec.NodeOf(v), rec.NodeOf(w)
					if cl.Reachable(f.Last, nv) && cl.Reachable(nv, nw) && !cl.Reachable(f.Last, nw) {
						return false // oracle inconsistent (impossible)
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDetectorAgainstOracle is a native fuzz target: any (seed, shape)
// triple must yield a valid SF-dag on which full SF-Order detection
// matches the exhaustive oracle at location granularity.
//
// Run with: go test -run FuzzDetectorAgainstOracle -fuzz FuzzDetectorAgainstOracle ./internal/core
func FuzzDetectorAgainstOracle(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(6))
	f.Add(int64(42), uint8(4), uint8(8))
	f.Add(int64(-7), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, depth, ops uint8) {
		p := progen.New(progen.Config{
			Seed:     seed,
			MaxDepth: 1 + int(depth%5),
			MaxOps:   1 + int(ops%9),
			Addrs:    5,
		})
		reach := core.New(core.Config{})
		hist := detect.NewHistory(detect.Options{Reach: reach})
		rec := dag.NewRecorder()
		log := oracle.NewLogger()
		_, err := sched.Run(sched.Options{
			Serial:  true,
			Tracer:  sched.MultiTracer{reach, rec},
			Checker: multiChecker{hist, log},
		}, p.Main())
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.G.Validate(); err != nil {
			t.Fatalf("invalid SF-dag: %v", err)
		}
		got, want := hist.RacyAddrs(), log.RacyAddrs(rec)
		if len(got) != len(want) {
			t.Fatalf("detector %v, oracle %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("detector %v, oracle %v", got, want)
			}
		}
	})
}
