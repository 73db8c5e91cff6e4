package forder_test

import (
	"fmt"
	"testing"

	"sforder/internal/dag"
	"sforder/internal/detect"
	"sforder/internal/forder"
	"sforder/internal/obsv"
	"sforder/internal/oracle"
	"sforder/internal/progen"
	"sforder/internal/sched"
)

func runWithReach(t *testing.T, workers int, serial bool, main func(*sched.Task)) (*forder.Reach, *dag.Recorder) {
	t.Helper()
	r := forder.NewReach()
	rec := dag.NewRecorder()
	_, err := sched.Run(sched.Options{
		Serial:  serial,
		Workers: workers,
		Tracer:  sched.MultiTracer{r, rec},
	}, main)
	if err != nil {
		t.Fatal(err)
	}
	return r, rec
}

func crossValidate(t *testing.T, name string, r *forder.Reach, rec *dag.Recorder) {
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

func TestBasicFutureRelations(t *testing.T) {
	var inFut, beforeGet, afterGet *sched.Strand
	r, rec := runWithReach(t, 0, true, func(t *sched.Task) {
		h := t.Create(func(c *sched.Task) any { inFut = c.Strand(); return nil })
		beforeGet = t.Strand()
		t.Get(h)
		afterGet = t.Strand()
	})
	if r.Precedes(inFut, beforeGet) || r.Precedes(beforeGet, inFut) {
		t.Error("future body and pre-get continuation must be parallel")
	}
	if !r.Precedes(inFut, afterGet) {
		t.Error("future body must precede the post-get strand")
	}
	crossValidate(t, "future", r, rec)
}

func TestSpawnRelations(t *testing.T) {
	r, rec := runWithReach(t, 0, true, func(t *sched.Task) {
		t.Spawn(func(c *sched.Task) {
			c.Spawn(func(*sched.Task) {})
			c.Sync()
		})
		t.Spawn(func(*sched.Task) {})
		t.Sync()
	})
	crossValidate(t, "spawn", r, rec)
}

func TestOpChainThroughMultipleFutures(t *testing.T) {
	// u creates G1; G1 creates G2; root gets G1 then G2's handle is
	// gotten inside G1 — exercising put-operation domination.
	r, rec := runWithReach(t, 0, true, func(t *sched.Task) {
		h1 := t.Create(func(c *sched.Task) any {
			h2 := c.Create(func(*sched.Task) any { return 2 })
			return c.Get(h2).(int) + 1
		})
		if got := t.Get(h1).(int); got != 3 {
			panic(fmt.Sprintf("got %d", got))
		}
	})
	crossValidate(t, "chain", r, rec)
}

func TestRandomProgramsSerial(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 7})
		r, rec := runWithReach(t, 0, true, p.Main())
		crossValidate(t, fmt.Sprintf("seed%d", seed), r, rec)
	}
}

func TestRandomProgramsParallel(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 7})
		r, rec := runWithReach(t, 4, false, p.Main())
		crossValidate(t, fmt.Sprintf("par-seed%d", seed), r, rec)
	}
}

// multiChecker fans accesses to the history and the oracle.
type multiChecker []sched.AccessChecker

func (m multiChecker) Read(s *sched.Strand, addr uint64) {
	for _, c := range m {
		c.Read(s, addr)
	}
}
func (m multiChecker) Write(s *sched.Strand, addr uint64) {
	for _, c := range m {
		c.Write(s, addr)
	}
}

// TestFullDetectionMatchesOracle runs the complete F-Order detector
// (reach + all-readers history) against the oracle on random programs.
func TestFullDetectionMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 6})
		reach := forder.NewReach()
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
		got, want := hist.RacyAddrs(), log.RacyAddrs(rec)
		if len(got) != len(want) {
			t.Fatalf("seed %d: detector %v, oracle %v", seed, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: detector %v, oracle %v", seed, got, want)
			}
		}
	}
}

func TestCountersAndMemory(t *testing.T) {
	r, _ := runWithReach(t, 0, true, func(t *sched.Task) {
		h := t.Create(func(*sched.Task) any { return nil })
		t.Get(h)
	})
	if r.MemBytes() <= 0 {
		t.Error("F-Order must account memory")
	}
	reg := obsv.NewRegistry()
	r.RegisterStats(reg)
	if reg.Snapshot()["reach.table_allocs"] == 0 {
		t.Error("create+get must allocate operation tables")
	}
}

// TestMemoryExceedsSFOrderShape: on a future-heavy program, F-Order's
// reachability memory should exceed SF-Order's bitmap-based footprint —
// the qualitative content of Figure 5. (The quantitative comparison runs
// in the benchmark harness.)
func TestTableGrowthWithFutures(t *testing.T) {
	small, _ := runWithReach(t, 0, true, func(t *sched.Task) {
		h := t.Create(func(*sched.Task) any { return nil })
		t.Get(h)
	})
	big, _ := runWithReach(t, 0, true, func(t *sched.Task) {
		for i := 0; i < 64; i++ {
			h := t.Create(func(*sched.Task) any { return nil })
			t.Get(h)
		}
	})
	if big.MemBytes() <= small.MemBytes() {
		t.Error("table memory must grow with the number of futures")
	}
}
