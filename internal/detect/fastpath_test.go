package detect_test

import (
	"fmt"
	"slices"
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
	reach := core.New(core.Config{})
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
	reach := core.New(core.Config{})
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

// fuzzShapes are the generated programs the fuzzes below run: single
// accesses to a handful of hot addresses, and run-shaped ones — row and
// tile runs that overlap, nest and cross page boundaries over a few pages,
// so states are shared, split and merged; and runs long enough that one
// strand flushes early.
var fuzzShapes = []struct {
	name  string
	cfg   progen.Config
	seeds int64 // of the seeds a fuzz asks for, one in this many is run
}{
	{"points", progen.Config{MaxDepth: 4, MaxOps: 8, Addrs: 5}, 1},
	{"runs", progen.Config{MaxDepth: 4, MaxOps: 8, Addrs: 700, MaxRun: 48}, 2},
	{"long runs", progen.Config{MaxDepth: 3, MaxOps: 8, Addrs: 1800, MaxRun: 900}, 5},
}

// fuzz calls check for seeds programs of every shape.
func fuzz(t *testing.T, seeds int64, check func(name string, p *progen.Program, want []uint64)) {
	for _, shape := range fuzzShapes {
		for seed := int64(0); seed < seeds; seed += shape.seeds {
			cfg := shape.cfg
			cfg.Seed = seed
			p := progen.New(cfg)
			check(fmt.Sprintf("%s, seed %d", shape.name, seed), p, runOracle(t, p))
		}
	}
}

// TestFastPathMatchesOracleFuzz is the fast path's soundness fuzz: on
// random programs, the racy-location set with the fast path on must be
// byte-identical to the set with it off AND to the exhaustive oracle.
// Programs run in separate engine executions (the dag
// and access addresses are deterministic), so each detector variant gets
// the StrandCloser hook it needs.
func TestFastPathMatchesOracleFuzz(t *testing.T) {
	fuzz(t, 40, func(name string, p *progen.Program, want []uint64) {
		off := runRacy(t, p, detect.Options{})
		on := runRacy(t, p, detect.Options{FastPath: true})
		if !sameAddrs(off, want) {
			t.Fatalf("%s: fastpath off %v, oracle %v", name, off, want)
		}
		if !sameAddrs(on, want) {
			t.Fatalf("%s: fastpath on %v, oracle %v", name, on, want)
		}
	})
}

// TestFastPathLRPolicyAgreement repeats the fuzz under the ReadersLR
// retention policy (which routes Precedes through updateLR, and copies a
// state's pairs when it splits).
func TestFastPathLRPolicyAgreement(t *testing.T) {
	fuzz(t, 25, func(name string, p *progen.Program, want []uint64) {
		on := runRacy(t, p, detect.Options{Policy: detect.ReadersLR, FastPath: true})
		if !sameAddrs(on, want) {
			t.Fatalf("%s: fastpath+LR %v, oracle %v", name, on, want)
		}
	})
}

// TestFastPathParallelAgreement runs random programs on the parallel
// engine (4 workers) with the fast path on and compares the racy set to
// the serial oracle: the detection guarantee is per-location and
// schedule-independent, so every schedule must produce the same set.
func TestFastPathParallelAgreement(t *testing.T) {
	fuzz(t, 15, func(name string, p *progen.Program, want []uint64) {
		for rep := 0; rep < 3; rep++ {
			reach := core.New(core.Config{})
			hist := detect.NewHistory(detect.Options{Reach: reach, FastPath: true})
			if _, err := sched.Run(sched.Options{Workers: 4, Tracer: reach, Checker: hist}, p.Main()); err != nil {
				t.Fatal(err)
			}
			if got := hist.RacyAddrs(); !sameAddrs(got, want) {
				t.Fatalf("%s, rep %d: parallel fastpath %v, oracle %v", name, rep, got, want)
			}
		}
	})
}

// TestFastPathOverlappingFlushHammer runs parallel strands that flush the
// same shadow pages at the same time — early, while they are still
// running, and at their close — and then repeat accesses their buffers
// must drop although other strands have overwritten the records in
// between. The racy-address set must equal the dag oracle's at every
// worker count, and the run must be clean under the Go race detector (CI
// runs this package with -race): every field of a page's states is touched
// under the page's lock only.
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
			reach := core.New(core.Config{})
			hist := detect.NewHistory(detect.Options{Reach: reach, FastPath: true})
			reg := obsv.NewRegistry()
			hist.RegisterStats(reg)
			if _, err := sched.Run(sched.Options{Workers: workers, Tracer: reach, Checker: hist}, prog); err != nil {
				t.Fatal(err)
			}
			if got := hist.RacyAddrs(); !sameAddrs(got, want) {
				t.Fatalf("%d workers, rep %d: racy addresses %v, oracle %v", workers, rep, got, want)
			}
			// Each child's second pass over the shared set is absorbed
			// whole; nothing else repeats.
			if got, want := reg.Snapshot()["hist.fastpath_hits"], int64(children*shared); got != want {
				t.Fatalf("%d workers, rep %d: %d accesses absorbed, want %d", workers, rep, got, want)
			}
		}
	}
}

// TestSharedStateSplitMergeHammer runs parallel strands that split and
// re-merge the states of the same pages while their siblings do the same:
// each child reads tile rows that overlap its neighbours' (every read of
// part of a state splits it), writes a sub-range of what the others read
// (a write merges what the reads split), and touches enough pages to flush
// early, so the splitting happens while the strands run and again at
// their close. The parent then overwrites everything, ordered after the
// children, and a second wave does it again, shifted, on states that are
// whole pages. The racy-address set must equal the dag oracle's at every
// worker count, and the run must be clean under the Go race detector (CI
// runs this package with -race): index map, state table and free list are
// touched under their page's lock only.
func TestSharedStateSplitMergeHammer(t *testing.T) {
	const (
		children = 8
		pages    = 24 // × (48 reads + 16 writes) = 1536 entries a child: one early flush
		quiet    = 200
	)
	wave := func(t *sched.Task, shift uint64) {
		for g := uint64(0); g < children; g++ {
			g := g
			t.Spawn(func(c *sched.Task) {
				for p := uint64(0); p < pages; p++ {
					base := p << 8
					// Three tile rows of 16, the last two also the next
					// two children's: racy where a neighbour writes.
					for a := 16 * g; a < 16*g+48; a++ {
						c.Read(base | (a + shift))
					}
					for a := 16 * g; a < 16*g+16; a++ {
						c.Write(base | (a + shift))
					}
					// Read by all, written by none: shared state that
					// every child's read updates, never racy.
					for a := uint64(quiet); a < quiet+8; a++ {
						c.Read(base | a)
					}
				}
			})
		}
		t.Sync()
	}
	prog := func(t *sched.Task) {
		wave(t, 0)
		for p := uint64(0); p < pages; p++ {
			for a := uint64(0); a < 256; a++ {
				t.Write(p<<8 | a) // ordered after every child: one state a page again
			}
		}
		wave(t, 8)
	}

	rec, log := dag.NewRecorder(), oracle.NewLogger()
	if _, err := sched.Run(sched.Options{Serial: true, Tracer: rec, Checker: log}, prog); err != nil {
		t.Fatal(err)
	}
	want := log.RacyAddrs(rec)
	// Every tile row but the first is written by one child and read by the
	// one or two before it: slots 16–127 in the first wave, 24–135 in the
	// second.
	if len(want) != pages*120 {
		t.Fatalf("oracle found %d racy addresses, the program has %d", len(want), pages*120)
	}
	for _, workers := range []int{1, 4} {
		for rep := 0; rep < 4; rep++ {
			reach := core.New(core.Config{})
			hist := detect.NewHistory(detect.Options{Reach: reach, FastPath: true})
			reg := obsv.NewRegistry()
			hist.RegisterStats(reg)
			if _, err := sched.Run(sched.Options{Workers: workers, Tracer: reach, Checker: hist}, prog); err != nil {
				t.Fatal(err)
			}
			if got := hist.RacyAddrs(); !sameAddrs(got, want) {
				t.Fatalf("%d workers, rep %d: %d racy addresses, oracle %d", workers, rep, len(got), len(want))
			}
			// How many depends on the schedule; a split a child and page is
			// well under what any schedule gives.
			if snap := reg.Snapshot(); snap["hist.state_splits"] < children*pages {
				t.Fatalf("%d workers, rep %d: %d state splits; every child is meant to split states on every page",
					workers, rep, snap["hist.state_splits"])
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
	reg := obsv.NewRegistry()
	h.RegisterStats(reg) // enable the counters
	ss := fakeStrands(2)
	const distinct = 1500 // > batchCap (1024)
	for a := uint64(0); a < distinct; a++ {
		h.Write(ss[0], a)
	}
	if reg.Snapshot()["hist.batch_flushes"] == 0 {
		t.Fatal("early flush did not fire before strand close")
	}
	// The buffer's bitmaps outlive the flush: re-writing an address from
	// the flushed prefix is absorbed.
	before := reg.Snapshot()["hist.fastpath_hits"]
	h.Write(ss[0], 0)
	if hits := reg.Snapshot()["hist.fastpath_hits"]; hits != before+1 {
		t.Fatalf("re-write after flush: fastpath hits %d, want %d", hits, before+1)
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

// flushSizes is a tap recording how many entries each flush applies. A
// drain zeroes the buffer's pending count after its last page, so each
// page of a flush sees the flush's size; the pages' entries add up to it.
type flushSizes struct {
	sizes []int
	left  int // entries of the current flush not tapped yet
}

func (f *flushSizes) TapAccesses(s *sched.Strand, addrs []uint64, _ []detect.AccessKind) {
	if f.left == 0 {
		f.left = s.Buf.Pending()
		f.sizes = append(f.sizes, f.left)
	}
	f.left -= len(addrs)
}

// TestFastPathRangeFlushBound: sched takes a range a page at a time, so a
// strand's early drain comes at the first page end past batchCap — never
// more than a page's slots over it — and keeps only the range's new part.
// With stats the history's gate is off and sched hands it the range an
// address at a time: the drains come at batchCap exactly, and the range's
// covered part counts as fast-path hits, one an address.
func TestFastPathRangeFlushBound(t *testing.T) {
	const batchCap, page = 1024, 1 << detect.PageBits
	for _, counted := range []bool{false, true} {
		tap := &flushSizes{}
		h := detect.NewHistory(detect.Options{Reach: &stubReach{prec: map[[2]uint64]bool{}}, FastPath: true, Tap: tap})
		opts := sched.Options{Serial: true, Checker: h}
		if counted {
			opts.Stats = obsv.NewRegistry()
			h.RegisterStats(opts.Stats)
		}
		var early []int
		_, err := sched.Run(opts, func(t *sched.Task) {
			t.WriteRange(100, 5000)
			early = slices.Clone(tap.sizes)
			t.WriteRange(0, 5100) // all but 0..99 covered
		})
		if err != nil {
			t.Fatal(err)
		}
		if counted {
			if hits := opts.Stats.Snapshot()["hist.fastpath_hits"]; hits != 5000 {
				t.Errorf("counted: %d fast-path hits, want the 5000 covered addresses", hits)
			}
		}
		if len(early) < 4 {
			t.Fatalf("counted=%v: a 5000-address range flushed %d times", counted, len(early))
		}
		for i, n := range early {
			if n < batchCap || n >= batchCap+page || counted && n != batchCap {
				t.Errorf("counted=%v: early flush %d applied %d entries, want [%d, %d), or %d counted",
					counted, i, n, batchCap, batchCap+page, batchCap)
			}
		}
		total := 0
		for _, n := range tap.sizes {
			total += n
		}
		if total != 5100 || tap.left != 0 {
			t.Errorf("counted=%v: the flushes applied %d entries, want 5100", counted, total)
		}
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
	reg := obsv.NewRegistry()
	h.RegisterStats(reg)
	ss := fakeStrands(2)
	h.Read(ss[0], 9)
	h.Read(ss[0], 9)  // dup read
	h.Write(ss[0], 9) // NOT subsumed: must take over the writer slot
	h.Write(ss[0], 9) // dup write
	h.Read(ss[0], 9)  // subsumed by the write
	h.StrandClose(ss[0])
	if hits := reg.Snapshot()["hist.fastpath_hits"]; hits != 3 {
		t.Fatalf("dedup hits = %d, want 3", hits)
	}
	// ss[1] reads: must race against ss[0]'s WRITE (kind preserved).
	h.Read(ss[1], 9)
	h.StrandClose(ss[1])
	races := h.Races()
	if len(races) != 1 || races[0].Prev != detect.AccessWrite {
		t.Fatalf("want one write/read race, got %v", races)
	}
}

// countingReach counts the queries it passes on.
type countingReach struct {
	detect.Reachability
	queries int
}

func (c *countingReach) Precedes(u, v *sched.Strand) bool {
	c.queries++
	return c.Reachability.Precedes(u, v)
}

// TestFlushQueriesOncePerState: locations with the same history are one
// state, and a strand's flush asks Precedes once per predecessor of a
// state it touches, not once per location: a hundred locations one strand
// wrote and another read cost a third strand's writes one query about the
// writer and one about the reader — and when it races with both, it is
// still reported on every one of the hundred addresses.
func TestFlushQueriesOncePerState(t *testing.T) {
	for _, racy := range []bool{false, true} {
		ss := fakeStrands(3)
		reach := &countingReach{Reachability: orderAll(ss)}
		if racy {
			reach.Reachability = &stubReach{}
		}
		h := detect.NewHistory(detect.Options{Reach: reach, FastPath: true})
		for _, s := range ss {
			for a := uint64(300); a < 400; a++ { // not page-aligned, one page
				if s == ss[1] {
					h.Read(s, a)
				} else {
					h.Write(s, a)
				}
			}
			h.StrandClose(s)
		}
		// ss[1]'s reads ask about ss[0]; ss[2]'s writes about both.
		if reach.queries != 3 {
			t.Errorf("racy=%v: %d Precedes queries for three strands over one shared state, want 3", racy, reach.queries)
		}
		wantRaces, wantAddrs := uint64(0), 0
		if racy {
			wantRaces, wantAddrs = 300, 100 // per address: read/write, write/write, write/read
		}
		if h.RaceCount() != wantRaces || len(h.RacyAddrs()) != wantAddrs {
			t.Errorf("racy=%v: %d races on %d addresses, want %d on %d", racy, h.RaceCount(), len(h.RacyAddrs()), wantRaces, wantAddrs)
		}
	}
}
