package progen_test

import (
	"maps"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"sforder/internal/accbuf"
	"sforder/internal/dag"
	"sforder/internal/obsv"
	"sforder/internal/progen"
	"sforder/internal/sched"
)

// TestProgramsAreStructured: every generated program must produce a
// valid SF-dag — single-touch, handle-safe paths, well-formed edges.
func TestProgramsAreStructured(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 5, MaxOps: 9})
		rec := dag.NewRecorder()
		if _, err := sched.Run(sched.Options{Serial: true, Tracer: rec}, p.Main()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := rec.G.Validate(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, rec.G.DOT())
		}
	}
}

// TestDeterministicAcrossRuns: one Program executed twice produces the
// same counts (the handle table is per-execution).
func TestDeterministicAcrossRuns(t *testing.T) {
	p := progen.New(progen.Config{Seed: 5, MaxDepth: 4, MaxOps: 8})
	main := p.Main()
	c1, err := sched.Run(sched.Options{Serial: true, Stats: obsv.NewRegistry()}, main)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := sched.Run(sched.Options{Serial: true, Stats: obsv.NewRegistry()}, main)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("re-execution diverged: %+v vs %+v", c1, c2)
	}
}

// TestScheduleIndependentShape: serial and parallel executions of one
// program produce the same dag-shape counts.
func TestScheduleIndependentShape(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8})
		cs, err := sched.Run(sched.Options{Serial: true, Stats: obsv.NewRegistry()}, p.Main())
		if err != nil {
			t.Fatal(err)
		}
		cp, err := sched.Run(sched.Options{Workers: 4, Stats: obsv.NewRegistry()}, p.Main())
		if err != nil {
			t.Fatal(err)
		}
		// Steals depend on the schedule, not the program shape.
		cp.Steals = cs.Steals
		if cs != cp {
			t.Errorf("seed %d: serial %+v != parallel %+v", seed, cs, cp)
		}
	}
}

// TestSlotsMatchCreates: Slots equals the number of futures created at
// runtime.
func TestSlotsMatchCreates(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8})
		c, err := sched.Run(sched.Options{Serial: true}, p.Main())
		if err != nil {
			t.Fatal(err)
		}
		if int(c.Futures)-1 != p.Slots() {
			t.Errorf("seed %d: runtime futures %d, Slots %d", seed, c.Futures-1, p.Slots())
		}
	}
}

// TestQuickGeneratedProgramsNeverPanic: property — arbitrary seeds and
// shape parameters yield programs that execute cleanly and validate.
func TestQuickGeneratedProgramsNeverPanic(t *testing.T) {
	f := func(seed int64, depth, ops uint8) bool {
		p := progen.New(progen.Config{
			Seed:     seed,
			MaxDepth: 1 + int(depth%5),
			MaxOps:   1 + int(ops%10),
		})
		rec := dag.NewRecorder()
		if _, err := sched.Run(sched.Options{Serial: true, Tracer: rec}, p.Main()); err != nil {
			return false
		}
		return rec.G.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// maxAddr is an access checker remembering the largest address it saw and
// how many accesses.
type maxAddr struct{ max, n uint64 }

func (m *maxAddr) Read(_ *sched.Strand, addr uint64)  { m.Write(nil, addr) }
func (m *maxAddr) Write(_ *sched.Strand, addr uint64) { m.max, m.n = max(m.max, addr), m.n+1 }

// TestRunsStayInsideTheAddressSpace: with MaxRun an access is a run of
// addresses, all of them below Addrs; without it (0 or 1) a program is the
// one the same seed always gave.
func TestRunsStayInsideTheAddressSpace(t *testing.T) {
	var plainTotal, runsTotal uint64
	for seed := int64(0); seed < 30; seed++ {
		var plain, one, runs maxAddr
		for cfg, m := range map[progen.Config]*maxAddr{
			{Seed: seed, Addrs: 300}:              &plain,
			{Seed: seed, Addrs: 300, MaxRun: 1}:   &one,
			{Seed: seed, Addrs: 300, MaxRun: 100}: &runs,
		} {
			if _, err := sched.Run(sched.Options{Serial: true, Checker: m}, progen.New(cfg).Main()); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if plain != one {
			t.Fatalf("seed %d: MaxRun 1 changed the program: %+v, was %+v", seed, one, plain)
		}
		if runs.max >= 300 {
			t.Fatalf("seed %d: a run reached address %d of 300", seed, runs.max)
		}
		plainTotal, runsTotal = plainTotal+plain.n, runsTotal+runs.n
	}
	if runsTotal < 10*plainTotal {
		t.Fatalf("%d accesses with runs of up to 100, %d without", runsTotal, plainTotal)
	}
}

// accessLog lists the accesses it gets in order, writes tagged in the top
// bit.
type accessLog struct{ log []uint64 }

func (l *accessLog) Read(_ *sched.Strand, addr uint64)  { l.log = append(l.log, addr) }
func (l *accessLog) Write(_ *sched.Strand, addr uint64) { l.log = append(l.log, addr|1<<63) }

// withRanges is a page sink: sched keeps its accesses in the strand
// buffers, a range a page at a time, and it collects what they drain as a
// set of (strand, address) pairs, writes tagged in the top bit.
type withRanges map[[2]uint64]bool

func (l withRanges) Read(s *sched.Strand, addr uint64) {
	sched.Keep(s, addr, accbuf.AccessRead, l.ApplyPage)
}

func (l withRanges) Write(s *sched.Strand, addr uint64) {
	sched.Keep(s, addr, accbuf.AccessWrite, l.ApplyPage)
}

func (l withRanges) SkipCovered() bool { return true }

func (l withRanges) ApplyPage(s *sched.Strand, page uint64, reads, writes *accbuf.SlotSet) {
	for kind, set := range [2]*accbuf.SlotSet{reads, writes} {
		for w, word := range set {
			for ; word != 0; word &= word - 1 {
				addr := page<<accbuf.PageBits | uint64(w<<6|bits.TrailingZeros64(word))
				l[[2]uint64{s.ID, addr | uint64(kind)<<63}] = true
			}
		}
	}
}

func (l withRanges) StrandClose(s *sched.Strand) { sched.CloseBuffer(s, l.ApplyPage) }

// TestMainRangesIsMain: MainRanges makes Main's accesses in Main's order
// when the engine breaks its ranges up for a checker that is no sink, and
// leaves a page sink the entries Main leaves it when the strand buffers
// take the ranges whole; only a program with runs spells any as ranges.
func TestMainRangesIsMain(t *testing.T) {
	calls, addrs, entries := 0, 0, 0
	for seed := int64(0); seed < 20; seed++ {
		for _, cfg := range []progen.Config{
			{Seed: seed, Addrs: 700, MaxRun: 48},
			{Seed: seed, Addrs: 16},
		} {
			p := progen.New(cfg)
			run := func(main func(*sched.Task), c sched.AccessChecker) {
				if _, err := sched.Run(sched.Options{Serial: true, Checker: c}, main); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			var plain, broken accessLog
			run(p.Main(), &plain)
			run(p.MainRanges(), &broken)
			if !slices.Equal(broken.log, plain.log) {
				t.Fatalf("seed %d, %+v: MainRanges made %d accesses broken up, Main %d", seed, cfg, len(broken.log), len(plain.log))
			}
			single, whole := withRanges{}, withRanges{}
			run(p.Main(), single)
			run(p.MainRanges(), whole)
			if !maps.Equal(whole, single) {
				t.Fatalf("seed %d, %+v: MainRanges left a page sink %d entries, Main %d", seed, cfg, len(whole), len(single))
			}
			c, a := progen.RangeCalls(p)
			if cfg.MaxRun == 0 {
				if c != 0 {
					t.Fatalf("seed %d: %d ranges in a program without runs", seed, c)
				}
				continue
			}
			calls, addrs, entries = calls+c, addrs+a, entries+len(whole)
		}
	}
	if calls < 100 || addrs < 10*calls {
		t.Errorf("20 programs with runs spelled %d ranges of %d addresses", calls, addrs)
	}
	if entries < 10000 {
		t.Errorf("20 programs with runs left their page sinks %d entries", entries)
	}
}
