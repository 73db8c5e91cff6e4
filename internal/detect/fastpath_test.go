package detect_test

import (
	"sync"
	"testing"

	"sforder/internal/core"
	"sforder/internal/dag"
	"sforder/internal/detect"
	"sforder/internal/obsv"
	"sforder/internal/oracle"
	"sforder/internal/progen"
	"sforder/internal/sched"
)

// runRacy executes p serially under full SF-Order detection and returns
// the racy-location set. The History is the engine's checker directly so
// the StrandCloser hook fires (required by the fast path).
func runRacy(t *testing.T, p *progen.Program, opts detect.Options) []uint64 {
	t.Helper()
	reach := core.NewReach()
	opts.Reach = reach
	if opts.Policy == detect.ReadersLR {
		opts.LeftOf = reach.LeftOf
	}
	hist := detect.NewHistory(opts)
	if _, err := sched.Run(sched.Options{Serial: true, Tracer: reach, Checker: hist}, p.Main()); err != nil {
		t.Fatal(err)
	}
	return hist.RacyAddrs()
}

// runOracle executes p serially under the exhaustive oracle and returns
// the ground-truth racy-location set.
func runOracle(t *testing.T, p *progen.Program) []uint64 {
	t.Helper()
	reach := core.NewReach()
	rec := dag.NewRecorder()
	log := oracle.NewLogger()
	_, err := sched.Run(sched.Options{
		Serial:  true,
		Tracer:  sched.MultiTracer{reach, rec},
		Checker: log,
	}, p.Main())
	if err != nil {
		t.Fatal(err)
	}
	return log.RacyAddrs(rec)
}

func sameAddrs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFastPathMatchesOracleFuzz is the fast path's soundness fuzz: on
// random programs, the racy-location set with the fast path on must be
// byte-identical to the set with it off AND to the exhaustive oracle.
// Programs run in separate engine executions (the dag
// and access addresses are deterministic), so each detector variant gets
// the StrandCloser hook it needs.
func TestFastPathMatchesOracleFuzz(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 5})
		want := runOracle(t, p)
		off := runRacy(t, p, detect.Options{})
		on := runRacy(t, p, detect.Options{FastPath: true})
		if !sameAddrs(off, want) {
			t.Fatalf("seed %d: fastpath off %v, oracle %v", seed, off, want)
		}
		if !sameAddrs(on, want) {
			t.Fatalf("seed %d: fastpath on %v, oracle %v", seed, on, want)
		}
	}
}

// TestFastPathLRPolicyAgreement repeats the fuzz under the ReadersLR
// retention policy (which routes Precedes through updateLR and therefore
// through the per-strand memo).
func TestFastPathLRPolicyAgreement(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 5})
		want := runOracle(t, p)
		on := runRacy(t, p, detect.Options{Policy: detect.ReadersLR, FastPath: true})
		if !sameAddrs(on, want) {
			t.Fatalf("seed %d: fastpath+LR %v, oracle %v", seed, on, want)
		}
	}
}

// TestFastPathParallelAgreement runs random programs on the parallel
// engine (4 workers) with the fast path on and compares the racy set to
// the serial oracle: the detection guarantee is per-location and
// schedule-independent, so every schedule must produce the same set.
func TestFastPathParallelAgreement(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 5})
		want := runOracle(t, p)
		for rep := 0; rep < 3; rep++ {
			reach := core.NewReach()
			hist := detect.NewHistory(detect.Options{Reach: reach, FastPath: true})
			if _, err := sched.Run(sched.Options{Workers: 4, Tracer: reach, Checker: hist}, p.Main()); err != nil {
				t.Fatal(err)
			}
			if got := hist.RacyAddrs(); !sameAddrs(got, want) {
				t.Fatalf("seed %d rep %d: parallel fastpath %v, oracle %v", seed, rep, got, want)
			}
		}
	}
}

// TestFastPathOverlappingFlushHammer runs parallel strands that flush the
// same shadow pages at the same time — early, while they are still
// running, and at their close — and then repeat accesses their buffers
// must drop although other strands have overwritten the records in
// between. The racy-address set must equal the dag oracle's at every
// worker count, and the run must be clean under the Go race detector (CI
// runs this package with -race): every record field is touched under its
// page's lock only.
func TestFastPathOverlappingFlushHammer(t *testing.T) {
	const (
		children = 8
		shared   = 64  // addresses of page 0 every child reads or writes
		columns  = 160 // pages every child touches at slots of its own
		late     = 200 // page 0: read by all after their early flush, written by one
	)
	prog := func(t *sched.Task) {
		for g := uint64(0); g < children; g++ {
			g := g
			t.Spawn(func(c *sched.Task) {
				touchShared := func() {
					for a := uint64(0); a < shared; a++ {
						if (a+g)%4 == 0 {
							c.Write(a)
						} else {
							c.Read(a)
						}
					}
				}
				touchShared()
				// 8 slots on each of 160 pages, read then written: 2560
				// entries, so the strand flushes early twice, onto pages
				// all its siblings are flushing to.
				for p := uint64(1); p <= columns; p++ {
					for a := 8 * g; a < 8*g+8; a++ {
						c.Read(p<<8 | a)
						c.Write(p<<8 | a)
					}
				}
				touchShared() // all repeats
				if g == 0 {
					c.Write(late)
				} else {
					c.Read(late)
				}
			})
		}
		t.Sync()
		for a := uint64(0); a <= late; a++ {
			t.Write(a) // ordered after every child: adds no race
		}
	}

	rec, log := dag.NewRecorder(), oracle.NewLogger()
	if _, err := sched.Run(sched.Options{Serial: true, Tracer: rec, Checker: log}, prog); err != nil {
		t.Fatal(err)
	}
	want := log.RacyAddrs(rec)
	if len(want) != shared+1 {
		t.Fatalf("oracle found %d racy addresses, the program has %d", len(want), shared+1)
	}
	for _, workers := range []int{1, 4} {
		for rep := 0; rep < 4; rep++ {
			reach := core.NewReach()
			hist := detect.NewHistory(detect.Options{Reach: reach, FastPath: true})
			hist.RegisterStats(obsv.NewRegistry())
			if _, err := sched.Run(sched.Options{Workers: workers, Tracer: reach, Checker: hist}, prog); err != nil {
				t.Fatal(err)
			}
			if got := hist.RacyAddrs(); !sameAddrs(got, want) {
				t.Fatalf("%d workers, rep %d: racy addresses %v, oracle %v", workers, rep, got, want)
			}
			// Each child's second pass over the shared set is absorbed
			// whole; nothing else repeats.
			if got, want := hist.FastPathHits(), uint64(children*shared); got != want {
				t.Fatalf("%d workers, rep %d: %d accesses absorbed, want %d", workers, rep, got, want)
			}
		}
	}
}

// TestFastPathParallelStrandsHammer drives concurrent strands over a small
// shared address set with interleaved flushes, without an engine: strands
// on plain goroutines, all mutually parallel — clean under the Go race
// detector (go test -race covers this file in CI).
func TestFastPathParallelStrandsHammer(t *testing.T) {
	histFast := detect.NewHistory(detect.Options{
		Reach:       &stubReach{prec: map[[2]uint64]bool{}},
		DedupByAddr: true,
		FastPath:    true,
	})
	fut := &sched.FutureTask{ID: 0}
	const goroutines, rounds, addrs = 8, 200, 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// One strand per round: accesses batch on it, and the
				// close applies them to pages other goroutines flush to.
				s := &sched.Strand{ID: id*rounds + uint64(r), Fut: fut}
				for a := uint64(0); a < addrs; a++ {
					if (a+id)%4 == 0 {
						histFast.Write(s, a)
					} else {
						histFast.Read(s, a)
						histFast.Read(s, a) // repeat: dropped by the buffer
					}
				}
				histFast.StrandClose(s)
			}
		}(uint64(g))
	}
	wg.Wait()
	// Everything is parallel under the stub reach, so every address saw
	// both a read and a write from different strands: all racy.
	if got := len(histFast.RacyAddrs()); got != addrs {
		t.Fatalf("racy addrs = %d, want %d", got, addrs)
	}
}

// TestStrandCloseIdempotent: closing a strand twice (engine close after
// an abort-time best-effort close) must be harmless.
func TestStrandCloseIdempotent(t *testing.T) {
	h := detect.NewHistory(detect.Options{
		Reach:    &stubReach{prec: map[[2]uint64]bool{}},
		FastPath: true,
	})
	s := fakeStrands(1)[0]
	h.Write(s, 1)
	h.StrandClose(s)
	h.StrandClose(s) // no-op
	h.Read(s, 1)     // a "reopened" strand just batches afresh
	h.StrandClose(s)
	if h.RaceCount() != 0 {
		t.Fatalf("self accesses reported as races: %v", h.Races())
	}
}

// TestFastPathEarlyFlush: a strand exceeding the batch capacity must
// flush early (bounding deferred work), after which its re-accesses are
// still dropped by its buffer, without any history traffic.
func TestFastPathEarlyFlush(t *testing.T) {
	h := detect.NewHistory(detect.Options{
		Reach:    &stubReach{prec: map[[2]uint64]bool{}},
		FastPath: true,
	})
	h.RegisterStats(obsv.NewRegistry()) // enable the counters
	ss := fakeStrands(2)
	const distinct = 1500 // > batchCap (1024)
	for a := uint64(0); a < distinct; a++ {
		h.Write(ss[0], a)
	}
	if h.BatchFlushes() == 0 {
		t.Fatal("early flush did not fire before strand close")
	}
	// The buffer's bitmaps outlive the flush: re-writing an address from
	// the flushed prefix is absorbed.
	before := h.FastPathHits()
	h.Write(ss[0], 0)
	if h.FastPathHits() != before+1 {
		t.Fatalf("re-write after flush: fastpath hits %d, want %d", h.FastPathHits(), before+1)
	}
	h.StrandClose(ss[0])
	// A parallel strand touching every address must race on each.
	for a := uint64(0); a < distinct; a++ {
		h.Write(ss[1], a)
	}
	h.StrandClose(ss[1])
	if got := len(h.RacyAddrs()); got != distinct {
		t.Fatalf("racy addrs = %d, want %d", got, distinct)
	}
	if h.LockAcquires() >= distinct {
		t.Fatalf("lock acquires %d not amortized below %d accesses", h.LockAcquires(), distinct)
	}
}

// TestFastPathDedupSubsumption checks the buffer's (addr, kind) rules: a
// read is subsumed by a prior same-strand read or write, a write only by
// a prior write — a write after a mere read must flush as a write.
func TestFastPathDedupSubsumption(t *testing.T) {
	h := detect.NewHistory(detect.Options{
		Reach:    &stubReach{prec: map[[2]uint64]bool{}},
		FastPath: true,
	})
	h.RegisterStats(obsv.NewRegistry())
	ss := fakeStrands(2)
	h.Read(ss[0], 9)
	h.Read(ss[0], 9)  // dup read
	h.Write(ss[0], 9) // NOT subsumed: must take over the writer slot
	h.Write(ss[0], 9) // dup write
	h.Read(ss[0], 9)  // subsumed by the write
	h.StrandClose(ss[0])
	if h.FastPathHits() != 3 {
		t.Fatalf("dedup hits = %d, want 3", h.FastPathHits())
	}
	// ss[1] reads: must race against ss[0]'s WRITE (kind preserved).
	h.Read(ss[1], 9)
	h.StrandClose(ss[1])
	races := h.Races()
	if len(races) != 1 || races[0].Prev != detect.AccessWrite {
		t.Fatalf("want one write/read race, got %v", races)
	}
}

// TestFastPathMemoServesRepeatedVerdicts: a streak of locations with the
// same last writer must hit the per-strand Precedes memo.
func TestFastPathMemoServesRepeatedVerdicts(t *testing.T) {
	ss := fakeStrands(2)
	h := detect.NewHistory(detect.Options{
		Reach:    orderAll(ss),
		FastPath: true,
	})
	h.RegisterStats(obsv.NewRegistry())
	for a := uint64(0); a < 100; a++ {
		h.Write(ss[0], a)
	}
	h.StrandClose(ss[0])
	for a := uint64(0); a < 100; a++ {
		h.Write(ss[1], a) // each checks Precedes(ss[0], ss[1])
	}
	h.StrandClose(ss[1])
	if h.RaceCount() != 0 {
		t.Fatalf("serial writes reported racy: %v", h.Races())
	}
	if h.MemoHits() < 90 {
		t.Fatalf("memo hits = %d, want ≥ 90 of 100 repeated verdicts", h.MemoHits())
	}
}
