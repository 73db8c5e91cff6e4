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

// runWithReach executes main with SF-Order reachability in the default
// configuration plus a dag recorder attached and returns both.
func runWithReach(t *testing.T, workers int, serial bool, main func(*sched.Task)) (*core.Reach, *dag.Recorder) {
	t.Helper()
	return runWithReachCfg(t, core.Config{}, workers, serial, main)
}

// crossValidate compares SF-Order Precedes against the exhaustive
// transitive closure of the recorded dag, over every ordered pair of
// strands.
func crossValidate(t *testing.T, name string, r *core.Reach, rec *dag.Recorder) {
	t.Helper()
	cl := dag.NewClosure(rec.G)
	strands := rec.Strands()
	for _, u := range strands {
		for _, v := range strands {
			if u == v {
				continue
			}
			want := cl.Reachable(rec.NodeOf(u), rec.NodeOf(v))
			if got := r.Precedes(u, v); got != want {
				t.Fatalf("%s: Precedes(%v, %v) = %v, oracle says %v\n%s",
					name, u, v, got, want, rec.G.DOT())
			}
		}
	}
}

func TestPrecedesSameStrand(t *testing.T) {
	r, rec := runWithReach(t, 0, true, func(*sched.Task) {})
	s := rec.Strands()[0]
	if !r.Precedes(s, s) {
		t.Error("a strand's accesses are serially ordered: Precedes(s,s) must be true")
	}
}

// TestSpawnRelations validates the fork-join cases: child parallel to
// continuation, both precede the sync strand.
func TestSpawnRelations(t *testing.T) {
	var child, cont, after *sched.Strand
	r, rec := runWithReach(t, 0, true, func(t *sched.Task) {
		t.Spawn(func(c *sched.Task) { child = c.Strand() })
		cont = t.Strand()
		t.Sync()
		after = t.Strand()
	})
	if r.Precedes(child, cont) || r.Precedes(cont, child) {
		t.Error("spawned child and continuation must be parallel")
	}
	if !r.Precedes(child, after) || !r.Precedes(cont, after) {
		t.Error("both branches must precede the post-sync strand")
	}
	crossValidate(t, "spawn", r, rec)
}

// TestFutureRelations validates the future cases: created future
// parallel to the continuation until gotten, ordered afterwards.
func TestFutureRelations(t *testing.T) {
	var inFut, beforeGet, afterGet *sched.Strand
	r, rec := runWithReach(t, 0, true, func(t *sched.Task) {
		h := t.Create(func(c *sched.Task) any { inFut = c.Strand(); return nil })
		beforeGet = t.Strand()
		t.Get(h)
		afterGet = t.Strand()
	})
	if r.Precedes(inFut, beforeGet) {
		t.Error("future body must be parallel to the pre-get continuation")
	}
	// The create strand precedes the body, but beforeGet is the
	// continuation after create, which must NOT precede the body.
	if r.Precedes(beforeGet, inFut) {
		t.Error("continuation must not precede the future body")
	}
	if !r.Precedes(inFut, afterGet) {
		t.Error("future body must precede the post-get strand")
	}
	crossValidate(t, "future", r, rec)
}

// TestSiblingFuturesOrderedThroughGet: a future created after getting
// another is preceded by it (gp propagation through the create edge).
func TestSiblingFuturesOrderedThroughGet(t *testing.T) {
	var inG1, inG2 *sched.Strand
	r, rec := runWithReach(t, 0, true, func(t *sched.Task) {
		h1 := t.Create(func(c *sched.Task) any { inG1 = c.Strand(); return nil })
		t.Get(h1)
		h2 := t.Create(func(c *sched.Task) any { inG2 = c.Strand(); return nil })
		t.Get(h2)
	})
	if !r.Precedes(inG1, inG2) {
		t.Error("G1 was gotten before G2 was created: G1 must precede G2")
	}
	if r.Precedes(inG2, inG1) {
		t.Error("G2 must not precede G1")
	}
	crossValidate(t, "sibling-gets", r, rec)
}

// TestSiblingFuturesParallel: futures created back-to-back with no get
// between them are parallel, and the pseudo-SP-dag's phantom paths must
// not leak through (paper §3.1, the f→t example).
func TestSiblingFuturesParallel(t *testing.T) {
	var inG1, inG2, tail *sched.Strand
	r, rec := runWithReach(t, 0, true, func(t *sched.Task) {
		h1 := t.Create(func(c *sched.Task) any { inG1 = c.Strand(); return nil })
		h2 := t.Create(func(c *sched.Task) any { inG2 = c.Strand(); return nil })
		tail = t.Strand()
		_, _ = h1, h2
	})
	if r.Precedes(inG1, inG2) || r.Precedes(inG2, inG1) {
		t.Error("back-to-back created futures must be parallel")
	}
	// Phantom check: in PSP(D) the futures join the root's implicit
	// sync, but no get exists, so the bodies must NOT precede any root
	// strand.
	if r.Precedes(inG1, tail) || r.Precedes(inG2, tail) {
		t.Error("ungotten future body must not precede the creator's continuation")
	}
	crossValidate(t, "sibling-parallel", r, rec)
}

// TestNestedFutureAncestorCase exercises Algorithm 1's case 2: u in an
// ancestor future of v's future, where the pseudo-SP-dag answers.
func TestNestedFutureAncestorCase(t *testing.T) {
	var beforeCreate, parallelToAll, inInner *sched.Strand
	r, rec := runWithReach(t, 0, true, func(t *sched.Task) {
		beforeCreate = t.Strand()
		h := t.Create(func(c *sched.Task) any {
			hh := c.Create(func(cc *sched.Task) any { inInner = cc.Strand(); return nil })
			return c.Get(hh)
		})
		parallelToAll = t.Strand()
		t.Get(h)
	})
	if !r.Precedes(beforeCreate, inInner) {
		t.Error("strand before create must precede the grandchild future body")
	}
	if r.Precedes(parallelToAll, inInner) || r.Precedes(inInner, parallelToAll) {
		t.Error("creator's continuation must be parallel to the grandchild body")
	}
	crossValidate(t, "nested", r, rec)
}

// TestHandleGottenInSpawnedChild: the get happens in a spawned child of
// the creating task (legal structured use).
func TestHandleGottenInSpawnedChild(t *testing.T) {
	r, rec := runWithReach(t, 0, true, func(t *sched.Task) {
		h := t.Create(func(*sched.Task) any { return 1 })
		t.Spawn(func(c *sched.Task) { _ = c.Get(h) })
		t.Sync()
	})
	crossValidate(t, "get-in-child", r, rec)
}

// TestRandomProgramsSerial cross-validates the OM pair's Precedes against
// the oracle on a battery of random structured-future programs, executed
// serially (TestDePaRandomProgramsSerial does the same for DePa).
func TestRandomProgramsSerial(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 7})
		r, rec := runWithReachCfg(t, core.Config{Reach: core.SubstrateOM}, 0, true, p.Main())
		crossValidate(t, fmt.Sprintf("seed%d", seed), r, rec)
	}
}

// TestRandomProgramsParallel does the same under the parallel engine,
// where tracer events interleave across workers.
func TestRandomProgramsParallel(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 7})
		r, rec := runWithReachCfg(t, core.Config{Reach: core.SubstrateOM}, 4, false, p.Main())
		crossValidate(t, fmt.Sprintf("par-seed%d", seed), r, rec)
	}
}

// TestGPMergeBound asserts the §3.4 claim: the number of gp bitmap
// allocations is O(k) — at most one per get plus one per divergent sync.
func TestGPMergeBound(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 5, MaxOps: 10})
		r, rec := runWithReach(t, 0, true, p.Main())
		k := rec.G.NumFutures() - 1 // exclude the root
		reg := obsv.NewRegistry()
		r.RegisterStats(reg)
		if merges := int(reg.Snapshot()["reach.gp_merges"]); merges > 2*k+1 {
			t.Errorf("seed %d: %d gp merges for k=%d futures (> 2k+1)", seed, merges, k)
		}
	}
}

func TestCountersAndMemory(t *testing.T) {
	r, _ := runWithReach(t, 0, true, func(t *sched.Task) {
		h := t.Create(func(*sched.Task) any { return nil })
		t.Get(h)
	})
	if r.Queries() != 0 {
		t.Error("no queries asked yet")
	}
	if r.MemBytes() <= 0 {
		t.Error("reachability structures must account some memory")
	}
}

func TestLeftOf(t *testing.T) {
	var c1, c2 *sched.Strand
	r, _ := runWithReach(t, 0, true, func(t *sched.Task) {
		t.Spawn(func(c *sched.Task) { c1 = c.Strand() })
		t.Spawn(func(c *sched.Task) { c2 = c.Strand() })
		t.Sync()
	})
	if !r.LeftOf(c1, c2) {
		t.Error("first spawned child is to the left of the second")
	}
	if r.LeftOf(c2, c1) {
		t.Error("LeftOf must be asymmetric")
	}
}
