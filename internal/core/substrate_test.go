package core_test

import (
	"fmt"
	"testing"

	"sforder/internal/core"
	"sforder/internal/dag"
	"sforder/internal/obsv"
	"sforder/internal/progen"
	"sforder/internal/sched"
)

// runWithReachCfg is runWithReach with an explicit core.Config, for the
// substrate (ABL10) tests.
func runWithReachCfg(t *testing.T, cfg core.Config, workers int, serial bool, main func(*sched.Task)) (*core.Reach, *dag.Recorder) {
	t.Helper()
	r := core.New(cfg)
	rec := dag.NewRecorder()
	_, err := sched.Run(sched.Options{
		Serial:  serial,
		Workers: workers,
		Tracer:  sched.MultiTracer{r, rec},
	}, main)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.G.Validate(); err != nil {
		t.Fatalf("recorded dag invalid: %v", err)
	}
	return r, rec
}

func TestParseSubstrate(t *testing.T) {
	for _, c := range []struct {
		in   string
		want core.Substrate
		err  bool
	}{
		{"om", core.SubstrateOM, false},
		{"", core.SubstrateOM, false},
		{"depa", core.SubstrateDePa, false},
		{"hybrid", core.SubstrateHybrid, false},
		{"interval", core.SubstrateOM, true},
	} {
		got, err := core.ParseSubstrate(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseSubstrate(%q) = (%v, %v), want (%v, err=%v)", c.in, got, err, c.want, c.err)
		}
	}
	if core.SubstrateDePa.String() != "depa" || core.SubstrateOM.String() != "om" ||
		core.SubstrateHybrid.String() != "hybrid" {
		t.Error("Substrate.String round trip broken")
	}
}

// TestDePaRandomProgramsSerial cross-validates the DePa substrate's
// Precedes against the exhaustive dag closure, mirroring
// TestRandomProgramsSerial for the OM pair.
func TestDePaRandomProgramsSerial(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 7})
		r, rec := runWithReachCfg(t, core.Config{Reach: core.SubstrateDePa}, 0, true, p.Main())
		crossValidate(t, fmt.Sprintf("depa-seed%d", seed), r, rec)
	}
}

// TestDePaRandomProgramsParallel does the same under the parallel
// engine, where label extensions race with queries across workers.
func TestDePaRandomProgramsParallel(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 7})
		r, rec := runWithReachCfg(t, core.Config{Reach: core.SubstrateDePa}, 4, false, p.Main())
		crossValidate(t, fmt.Sprintf("depa-par-seed%d", seed), r, rec)
	}
}

// TestSubstratesAgree pins verdict equality between the two substrates
// directly (both also agree with the oracle above, but this catches a
// matched pair of errors): every ordered strand pair, same program,
// both Precedes and LeftOf.
func TestSubstratesAgree(t *testing.T) {
	for seed := int64(50); seed < 60; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8})
		omR, omRec := runWithReachCfg(t, core.Config{}, 0, true, p.Main())
		dpR, dpRec := runWithReachCfg(t, core.Config{Reach: core.SubstrateDePa}, 0, true, p.Main())
		omS, dpS := omRec.Strands(), dpRec.Strands()
		if len(omS) != len(dpS) {
			t.Fatalf("seed %d: strand counts differ: %d vs %d", seed, len(omS), len(dpS))
		}
		// Serial execution is deterministic, so strand i is the same
		// logical strand in both runs.
		for i, u := range omS {
			for j, v := range omS {
				if i == j {
					continue
				}
				if om, dp := omR.Precedes(u, v), dpR.Precedes(dpS[i], dpS[j]); om != dp {
					t.Fatalf("seed %d: Precedes(%d, %d): om=%v depa=%v", seed, i, j, om, dp)
				}
				if om, dp := omR.LeftOf(u, v), dpR.LeftOf(dpS[i], dpS[j]); om != dp {
					t.Fatalf("seed %d: LeftOf(%d, %d): om=%v depa=%v", seed, i, j, om, dp)
				}
			}
		}
	}
}

// TestDePaMemoryAccounted: the DePa substrate must account label bytes
// in MemBytes the way the OM pair accounts its lists.
func TestDePaMemoryAccounted(t *testing.T) {
	r, _ := runWithReachCfg(t, core.Config{Reach: core.SubstrateDePa}, 0, true, func(t *sched.Task) {
		h := t.Create(func(*sched.Task) any { return nil })
		t.Get(h)
	})
	if r.MemBytes() <= 0 {
		t.Error("DePa reachability structures must account some memory")
	}
}

// hybridCfg uses a threshold small enough that progen programs (depth
// ≤ 4-5 forks but each spawn/create/get adds components) actually
// cross the flat/cord boundary mid-run, exercising both compare paths
// and the mixed flat-present/flat-absent pairs.
func hybridCfg() core.Config {
	return core.Config{Reach: core.SubstrateHybrid, HybridDepth: 6}
}

// TestHybridRandomProgramsSerial cross-validates the hybrid substrate
// against the exhaustive dag closure.
func TestHybridRandomProgramsSerial(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 7})
		r, rec := runWithReachCfg(t, hybridCfg(), 0, true, p.Main())
		crossValidate(t, fmt.Sprintf("hybrid-seed%d", seed), r, rec)
	}
}

// TestHybridRandomProgramsParallel does the same under the parallel
// engine, where label extensions race with queries across workers.
func TestHybridRandomProgramsParallel(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 7})
		r, rec := runWithReachCfg(t, hybridCfg(), 4, false, p.Main())
		crossValidate(t, fmt.Sprintf("hybrid-par-seed%d", seed), r, rec)
	}
}

// TestHybridAgreesWithBoth pins verdict equality of the hybrid against
// both other substrates on the same serial programs — every ordered
// strand pair, Precedes and LeftOf — so a flat/cord disagreement at
// the threshold cannot hide behind the oracle's coarser view.
func TestHybridAgreesWithBoth(t *testing.T) {
	for seed := int64(50); seed < 58; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8})
		omR, omRec := runWithReachCfg(t, core.Config{}, 0, true, p.Main())
		dpR, dpRec := runWithReachCfg(t, core.Config{Reach: core.SubstrateDePa}, 0, true, p.Main())
		hyR, hyRec := runWithReachCfg(t, hybridCfg(), 0, true, p.Main())
		omS, dpS, hyS := omRec.Strands(), dpRec.Strands(), hyRec.Strands()
		if len(omS) != len(hyS) || len(dpS) != len(hyS) {
			t.Fatalf("seed %d: strand counts differ: %d/%d/%d", seed, len(omS), len(dpS), len(hyS))
		}
		for i, u := range omS {
			for j, v := range omS {
				if i == j {
					continue
				}
				om := omR.Precedes(u, v)
				dp := dpR.Precedes(dpS[i], dpS[j])
				hy := hyR.Precedes(hyS[i], hyS[j])
				if om != hy || dp != hy {
					t.Fatalf("seed %d: Precedes(%d, %d): om=%v depa=%v hybrid=%v", seed, i, j, om, dp, hy)
				}
				oml := omR.LeftOf(u, v)
				hyl := hyR.LeftOf(hyS[i], hyS[j])
				if oml != hyl {
					t.Fatalf("seed %d: LeftOf(%d, %d): om=%v hybrid=%v", seed, i, j, oml, hyl)
				}
			}
		}
	}
}

// TestHybridUsesBothPaths runs a program deep enough to cross
// HybridDepth, queries every strand pair, and checks via the stats
// gauges that some compares took the flat fast path and some fell
// through to cords — i.e. the tests above actually covered the mix
// they claim to.
func TestHybridUsesBothPaths(t *testing.T) {
	r, rec := runWithReachCfg(t, hybridCfg(), 0, true, func(t *sched.Task) {
		var descend func(t *sched.Task, d int)
		descend = func(t *sched.Task, d int) {
			if d == 0 {
				return
			}
			t.Spawn(func(c *sched.Task) { descend(c, d-1) })
			t.Sync()
		}
		descend(t, 20)
	})
	strands := rec.Strands()
	for _, u := range strands {
		for _, v := range strands {
			if u != v {
				r.Precedes(u, v)
			}
		}
	}
	reg := obsv.NewRegistry()
	r.RegisterStats(reg)
	snap := reg.Snapshot()
	flat, total := snap["depa.flat_compares"], snap["depa.compares"]
	if flat == 0 {
		t.Error("no compares took the flat fast path")
	}
	if total <= flat {
		t.Errorf("no compares fell through to cords: flat=%d total=%d", flat, total)
	}
	if _, ok := snap["depa.chunks"]; !ok {
		t.Error("depa.chunks gauge missing")
	}
	if _, ok := snap["depa.slab_waste_bytes"]; !ok {
		t.Error("depa.slab_waste_bytes gauge missing")
	}
}
