package progen_test

import (
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
// bit, and, as withRanges, counts the ranges it is handed.
type accessLog struct {
	log                    []uint64
	rangeCalls, rangeAddrs int
}

func (l *accessLog) Read(_ *sched.Strand, addr uint64)  { l.log = append(l.log, addr) }
func (l *accessLog) Write(_ *sched.Strand, addr uint64) { l.log = append(l.log, addr|1<<63) }

// withRanges is an accessLog that takes ranges, as single accesses.
type withRanges struct{ *accessLog }

func (l withRanges) AccessRange(s *sched.Strand, addr uint64, n int, kind accbuf.AccessKind) {
	l.rangeCalls++
	l.rangeAddrs += n
	for k := range uint64(n) {
		if kind == accbuf.AccessWrite {
			l.Write(s, addr+k)
		} else {
			l.Read(s, addr+k)
		}
	}
}

// TestMainRangesIsMain: MainRanges makes Main's accesses in Main's order,
// whether the checker takes its ranges or the engine breaks them up; only
// a program with runs spells any as ranges.
func TestMainRangesIsMain(t *testing.T) {
	calls, addrs := 0, 0
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
			var plain, broken, whole accessLog
			run(p.Main(), &plain)
			run(p.MainRanges(), &broken)
			run(p.MainRanges(), withRanges{&whole})
			if !slices.Equal(broken.log, plain.log) || !slices.Equal(whole.log, plain.log) {
				t.Fatalf("seed %d, %+v: MainRanges made %d and %d accesses (broken up, whole), Main %d",
					seed, cfg, len(broken.log), len(whole.log), len(plain.log))
			}
			if cfg.MaxRun == 0 && whole.rangeCalls != 0 {
				t.Fatalf("seed %d: %d ranges in a program without runs", seed, whole.rangeCalls)
			}
			calls, addrs = calls+whole.rangeCalls, addrs+whole.rangeAddrs
		}
	}
	if calls < 100 || addrs < 10*calls {
		t.Errorf("20 programs with runs spelled %d ranges of %d addresses", calls, addrs)
	}
}
