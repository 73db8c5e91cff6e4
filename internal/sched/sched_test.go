package sched_test

import (
	"strings"
	"sync/atomic"
	"testing"

	"sforder/internal/dag"
	"sforder/internal/obsv"
	"sforder/internal/sched"
)

func runBoth(t *testing.T, name string, main func(*sched.Task)) (serial, par *dag.Graph) {
	t.Helper()
	rs := dag.NewRecorder()
	if _, err := sched.Run(sched.Options{Serial: true, Tracer: rs}, main); err != nil {
		t.Fatalf("%s serial: %v", name, err)
	}
	rp := dag.NewRecorder()
	if _, err := sched.Run(sched.Options{Workers: 4, Tracer: rp}, main); err != nil {
		t.Fatalf("%s parallel: %v", name, err)
	}
	for mode, g := range map[string]*dag.Graph{"serial": rs.G, "parallel": rp.G} {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s %s: invalid dag: %v", name, mode, err)
		}
	}
	return rs.G, rp.G
}

func TestTrivialProgram(t *testing.T) {
	s, p := runBoth(t, "trivial", func(*sched.Task) {})
	if s.NumNodes() != 1 || p.NumNodes() != 1 {
		t.Errorf("trivial program should have 1 node, got %d/%d", s.NumNodes(), p.NumNodes())
	}
	if s.NumFutures() != 1 {
		t.Errorf("trivial program should have only the root future")
	}
}

func TestSpawnSyncShape(t *testing.T) {
	main := func(t *sched.Task) {
		t.Spawn(func(*sched.Task) {})
		t.Spawn(func(*sched.Task) {})
		t.Sync()
	}
	s, p := runBoth(t, "spawn-sync", main)
	// Nodes: root u, c1, k1, sync placeholder, c2, k2 = 6.
	if s.NumNodes() != 6 {
		t.Errorf("expected 6 nodes, got %d", s.NumNodes())
	}
	ws, ss := s.WorkSpan()
	wp, sp := p.WorkSpan()
	if ws != wp || ss != sp {
		t.Errorf("work/span differ across schedules: serial %d/%d parallel %d/%d", ws, ss, wp, sp)
	}
	// Longest path: root -> k1 -> k2 -> sync = 4 strands.
	if ss != 4 {
		t.Errorf("span = %d, want 4", ss)
	}
}

func TestSyncWithoutSpawnIsNoop(t *testing.T) {
	s, _ := runBoth(t, "sync-noop", func(t *sched.Task) {
		t.Sync()
		t.Sync()
	})
	if s.NumNodes() != 1 {
		t.Errorf("sync without spawn must not create nodes, got %d", s.NumNodes())
	}
}

func TestNestedSpawns(t *testing.T) {
	var depth func(*sched.Task, int)
	depth = func(t *sched.Task, d int) {
		if d == 0 {
			return
		}
		t.Spawn(func(c *sched.Task) { depth(c, d-1) })
		t.Spawn(func(c *sched.Task) { depth(c, d-1) })
		t.Sync()
	}
	s, p := runBoth(t, "nested", func(t *sched.Task) { depth(t, 5) })
	ws, ss := s.WorkSpan()
	wp, sp := p.WorkSpan()
	if ws != wp || ss != sp {
		t.Errorf("work/span differ: %d/%d vs %d/%d", ws, ss, wp, sp)
	}
}

func TestFutureValueRoundTrip(t *testing.T) {
	for _, serial := range []bool{true, false} {
		var got int
		_, err := sched.Run(sched.Options{Serial: serial, Workers: 2}, func(t *sched.Task) {
			h := t.Create(func(*sched.Task) any { return 41 })
			got = t.Get(h).(int) + 1
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != 42 {
			t.Errorf("serial=%v: got %d, want 42", serial, got)
		}
	}
}

func TestFutureDagShape(t *testing.T) {
	main := func(t *sched.Task) {
		h := t.Create(func(*sched.Task) any { return nil })
		t.Get(h)
	}
	s, _ := runBoth(t, "future", main)
	futs := s.Futures()
	if len(futs) != 2 {
		t.Fatalf("expected 2 futures, got %d", len(futs))
	}
	f := futs[1]
	if f.First == nil || f.Last == nil || f.Got == nil {
		t.Fatal("future metadata incomplete")
	}
	if !s.Reachable(f.Last, f.Got) {
		t.Error("put must reach the get node")
	}
}

func TestUngottenFutureStillRuns(t *testing.T) {
	for _, serial := range []bool{true, false} {
		var ran atomic.Bool
		_, err := sched.Run(sched.Options{Serial: serial, Workers: 2}, func(t *sched.Task) {
			t.Create(func(*sched.Task) any { ran.Store(true); return nil })
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ran.Load() {
			t.Errorf("serial=%v: ungotten future never executed", serial)
		}
	}
}

func TestDoubleGetPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on double get")
		}
		if !strings.Contains(r.(string), "single-touch") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	sched.Run(sched.Options{Serial: true}, func(t *sched.Task) {
		h := t.Create(func(*sched.Task) any { return nil })
		t.Get(h)
		t.Get(h)
	})
}

func TestParallelPanicBecomesError(t *testing.T) {
	_, err := sched.Run(sched.Options{Workers: 2}, func(t *sched.Task) {
		t.Spawn(func(*sched.Task) { panic("boom") })
		t.Sync()
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected wrapped panic, got %v", err)
	}
}

// TestHandleAcrossTasks passes a future handle into a spawned child which
// gets it — legal under structured futures when the get is sequentially
// after the create.
func TestHandleAcrossTasks(t *testing.T) {
	main := func(t *sched.Task) {
		h := t.Create(func(*sched.Task) any { return 7 })
		t.Spawn(func(c *sched.Task) { _ = c.Get(h) })
		t.Sync()
	}
	runBoth(t, "handle-across", main)
}

// TestDeepGetChain builds a chain of futures each getting the previous,
// exercising the inline-claim path in Get.
func TestDeepGetChain(t *testing.T) {
	for _, serial := range []bool{true, false} {
		var total int
		_, err := sched.Run(sched.Options{Serial: serial, Workers: 3}, func(t *sched.Task) {
			prev := t.Create(func(*sched.Task) any { return 1 })
			for i := 0; i < 50; i++ {
				p := prev
				prev = t.Create(func(ft *sched.Task) any { return ft.Get(p).(int) + 1 })
			}
			total = t.Get(prev).(int)
		})
		if err != nil {
			t.Fatal(err)
		}
		if total != 51 {
			t.Errorf("serial=%v: total = %d, want 51", serial, total)
		}
	}
}

func TestCounts(t *testing.T) {
	counts, err := sched.Run(sched.Options{Serial: true, Stats: obsv.NewRegistry()}, func(t *sched.Task) {
		t.Spawn(func(c *sched.Task) { c.Write(1) })
		t.Sync()
		h := t.Create(func(c *sched.Task) any { c.Read(1); c.Read(2); return nil })
		t.Get(h)
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts.Spawns != 1 || counts.Gets != 1 || counts.Futures != 2 {
		t.Errorf("counts = %+v", counts)
	}
	if counts.Reads != 2 || counts.Writes != 1 {
		t.Errorf("access counts = %+v", counts)
	}
	// Without a stats registry the read/write counters stay zero.
	counts, _ = sched.Run(sched.Options{Serial: true}, func(t *sched.Task) { t.Read(1) })
	if counts.Reads != 0 {
		t.Error("a run without Stats must not count reads")
	}
}

// TestSerialOrderMatchesRecording checks that in serial mode the
// recorder's creation order is consistent with the dag's left-to-right
// depth-first SerialOrder for straightforward programs.
func TestSerialOrderMatchesRecording(t *testing.T) {
	r := dag.NewRecorder()
	_, err := sched.Run(sched.Options{Serial: true, Tracer: r}, func(t *sched.Task) {
		t.Spawn(func(c *sched.Task) {
			c.Spawn(func(*sched.Task) {})
			c.Sync()
		})
		t.Spawn(func(*sched.Task) {})
		t.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	order := r.G.SerialOrder()
	if len(order) != r.G.NumNodes() {
		t.Fatalf("SerialOrder visited %d of %d nodes", len(order), r.G.NumNodes())
	}
	// The serial order must be a topological order.
	pos := map[*dag.Node]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, n := range r.G.Nodes() {
		for _, e := range n.Out {
			if pos[e.From] >= pos[e.To] {
				t.Fatalf("SerialOrder violates edge %v->%v", e.From, e.To)
			}
		}
	}
}

// TestManyWorkersStress runs a fib-like spawn tree with more workers than
// cores and checks determinism of the result.
func TestManyWorkersStress(t *testing.T) {
	var fib func(t *sched.Task, n int) int
	fib = func(t *sched.Task, n int) int {
		if n < 2 {
			return n
		}
		var a int
		t.Spawn(func(c *sched.Task) { a = fib(c, n-1) })
		b := fib(t, n-2)
		t.Sync()
		return a + b
	}
	var got int
	_, err := sched.Run(sched.Options{Workers: 8}, func(t *sched.Task) { got = fib(t, 16) })
	if err != nil {
		t.Fatal(err)
	}
	if got != 987 {
		t.Errorf("fib(16) = %d, want 987", got)
	}
}

// TestWorkSpanAcrossSchedules: dag shape metrics are schedule independent
// for a future-heavy pipeline.
func TestWorkSpanAcrossSchedules(t *testing.T) {
	main := func(t *sched.Task) {
		var hs []*sched.Future
		for i := 0; i < 16; i++ {
			hs = append(hs, t.Create(func(*sched.Task) any { return nil }))
		}
		for _, h := range hs {
			t.Get(h)
		}
	}
	s, p := runBoth(t, "pipeline", main)
	ws, ss := s.WorkSpan()
	wp, sp := p.WorkSpan()
	if ws != wp || ss != sp {
		t.Errorf("work/span differ: serial %d/%d parallel %d/%d", ws, ss, wp, sp)
	}
	if s.NumFutures() != 17 {
		t.Errorf("futures = %d, want 17", s.NumFutures())
	}
}
