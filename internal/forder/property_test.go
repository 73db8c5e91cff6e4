package forder_test

import (
	"testing"
	"testing/quick"

	"sforder/internal/dag"
	"sforder/internal/forder"
	"sforder/internal/obsv"
	"sforder/internal/progen"
	"sforder/internal/sched"
)

// TestQuickPrecedesMatchesOracle: arbitrary program shapes, exhaustive
// pairwise comparison against the transitive closure.
func TestQuickPrecedesMatchesOracle(t *testing.T) {
	f := func(seed int64, depth, ops uint8) bool {
		p := progen.New(progen.Config{
			Seed:     seed,
			MaxDepth: 1 + int(depth%4),
			MaxOps:   1 + int(ops%7),
		})
		r := forder.NewReach()
		rec := dag.NewRecorder()
		if _, err := sched.Run(sched.Options{Serial: true, Tracer: sched.MultiTracer{r, rec}}, p.Main()); err != nil {
			return false
		}
		cl := dag.NewClosure(rec.G)
		strands := rec.Strands()
		if len(strands) > 40 {
			strands = strands[:40]
		}
		for _, u := range strands {
			for _, v := range strands {
				if u == v {
					continue
				}
				if r.Precedes(u, v) != cl.Reachable(rec.NodeOf(u), rec.NodeOf(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestOpTablesBoundedByFutures: every operation table holds at most one
// entry list per future task, and the per-task antichain can't exceed
// that task's operation count.
func TestOpTablesBoundedByFutures(t *testing.T) {
	p := progen.New(progen.Config{Seed: 11, MaxDepth: 5, MaxOps: 9})
	r := forder.NewReach()
	rec := dag.NewRecorder()
	if _, err := sched.Run(sched.Options{Serial: true, Tracer: sched.MultiTracer{r, rec}}, p.Main()); err != nil {
		t.Fatal(err)
	}
	reg := obsv.NewRegistry()
	r.RegisterStats(reg)
	if reg.Snapshot()["reach.table_allocs"] == 0 && rec.G.NumFutures() > 1 {
		t.Error("future-using program allocated no op tables")
	}
}
