package workload_test

import (
	"testing"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/obsv"
	"sforder/internal/sched"
	"sforder/internal/workload"
)

// TestBenchmarksComputeCorrectly runs every benchmark at test scale,
// serially and in parallel, and checks Verify.
func TestBenchmarksComputeCorrectly(t *testing.T) {
	for _, b := range append(workload.All(workload.ScaleTest), workload.Extras(workload.ScaleTest)...) {
		b := b
		t.Run(b.Name+"/serial", func(t *testing.T) {
			run := b.Make()
			if _, err := sched.Run(sched.Options{Serial: true}, run.Main); err != nil {
				t.Fatal(err)
			}
			if err := run.Verify(); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(b.Name+"/parallel", func(t *testing.T) {
			run := b.Make()
			if _, err := sched.Run(sched.Options{Workers: 4}, run.Main); err != nil {
				t.Fatal(err)
			}
			if err := run.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBenchmarksRaceFree: the paper's benchmarks are race-free; the full
// SF-Order detector must report nothing on any of them, under both
// reader policies.
func TestBenchmarksRaceFree(t *testing.T) {
	for _, b := range append(workload.All(workload.ScaleTest), workload.Extras(workload.ScaleTest)...) {
		for _, policy := range []detect.ReaderPolicy{detect.ReadersAll, detect.ReadersLR} {
			b, policy := b, policy
			t.Run(b.Name+"/"+policy.String(), func(t *testing.T) {
				run := b.Make()
				reach := core.New(core.Config{})
				hist := detect.NewHistory(detect.Options{
					Reach:  reach,
					Policy: policy,
					LeftOf: reach.LeftOf,
				})
				if _, err := sched.Run(sched.Options{Serial: true, Tracer: reach, Checker: hist}, run.Main); err != nil {
					t.Fatal(err)
				}
				if n := hist.RaceCount(); n != 0 {
					t.Fatalf("%d false races: %v", n, hist.Races()[:min(4, len(hist.Races()))])
				}
				if err := run.Verify(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestBenchmarksRaceFreeParallel repeats the race-freedom check under
// the parallel engine with the full detector attached.
func TestBenchmarksRaceFreeParallel(t *testing.T) {
	for _, b := range append(workload.All(workload.ScaleTest), workload.Extras(workload.ScaleTest)...) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			run := b.Make()
			reach := core.New(core.Config{})
			hist := detect.NewHistory(detect.Options{Reach: reach})
			if _, err := sched.Run(sched.Options{Workers: 4, Tracer: reach, Checker: hist}, run.Main); err != nil {
				t.Fatal(err)
			}
			if n := hist.RaceCount(); n != 0 {
				t.Fatalf("%d false races under parallel execution", n)
			}
			if err := run.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCharacteristicsStable: strand/future counts are deterministic and
// schedule-independent (the Figure 3 columns).
func TestCharacteristicsStable(t *testing.T) {
	for _, b := range append(workload.All(workload.ScaleTest), workload.Extras(workload.ScaleTest)...) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			c1, err := sched.Run(sched.Options{Serial: true, Stats: obsv.NewRegistry()}, b.Make().Main)
			if err != nil {
				t.Fatal(err)
			}
			c2, err := sched.Run(sched.Options{Workers: 4, Stats: obsv.NewRegistry()}, b.Make().Main)
			if err != nil {
				t.Fatal(err)
			}
			// Steals are a property of the schedule, not the program;
			// everything else must match exactly.
			c2.Steals = c1.Steals
			if c1 != c2 {
				t.Errorf("counts differ across schedules:\nserial   %+v\nparallel %+v", c1, c2)
			}
			// spine is spawn-only by design (the OM/label adversary);
			// every other workload must create futures.
			if c1.Futures < 2 && b.Name != "spine" {
				t.Errorf("benchmark uses no futures: %+v", c1)
			}
			if c1.Reads == 0 || c1.Writes == 0 {
				t.Errorf("benchmark has no instrumented accesses: %+v", c1)
			}
		})
	}
}

// TestAccessCountsPinned pins every benchmark's access multiset at test
// scale: the Figure 3 read and write counts, and how many of the accesses
// the shipping history's strand buffers absorb. A kernel may change how
// it spells its accesses — element by element or as ranges — but a
// rewrite that changes which accesses it makes fails here.
func TestAccessCountsPinned(t *testing.T) {
	want := map[string]struct{ reads, writes, hits int64 }{
		"mm":       {69632, 4096, 57344},
		"sort":     {8972, 5000, 3826},
		"sw":       {24576, 4096, 19440},
		"hw":       {6272, 6240, 882},
		"ferret":   {2560, 1544, 504},
		"spine":    {60, 123, 61},
		"pipeline": {104, 104, 0},
		"ksweep":   {492, 28, 384},
	}
	for _, b := range append(workload.All(workload.ScaleTest), workload.Extras(workload.ScaleTest)...) {
		w, ok := want[b.Name]
		if !ok {
			t.Errorf("%s: no pinned counts", b.Name)
			continue
		}
		c, err := sched.Run(sched.Options{Serial: true, Stats: obsv.NewRegistry()}, b.Make().Main)
		if err != nil {
			t.Fatal(err)
		}
		if int64(c.Reads) != w.reads || int64(c.Writes) != w.writes {
			t.Errorf("%s: %d reads and %d writes, pinned %d and %d", b.Name, c.Reads, c.Writes, w.reads, w.writes)
		}
		reach := core.New(core.Config{})
		hist := detect.NewHistory(detect.Options{Reach: reach, FastPath: true})
		stats := obsv.NewRegistry()
		hist.RegisterStats(stats)
		if _, err := sched.Run(sched.Options{Serial: true, Tracer: reach, Checker: hist}, b.Make().Main); err != nil {
			t.Fatal(err)
		}
		if hits := stats.Snapshot()["hist.fastpath_hits"]; hits != w.hits {
			t.Errorf("%s: the strand buffers absorbed %d accesses, pinned %d", b.Name, hits, w.hits)
		}
	}
}

// TestFutureCountsMatchShape: spot-check the future-count formulas the
// benchmark docs promise.
func TestFutureCountsMatchShape(t *testing.T) {
	// sw: (n/b)² tile futures + root.
	c, err := sched.Run(sched.Options{Serial: true}, workload.SW(64, 16).Make().Main)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(16 + 1); c.Futures != want {
		t.Errorf("sw futures = %d, want %d", c.Futures, want)
	}
	// ferret: 4 per query + root.
	c, err = sched.Run(sched.Options{Serial: true}, workload.Ferret(8, 64).Make().Main)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(4*8 + 1); c.Futures != want {
		t.Errorf("ferret futures = %d, want %d", c.Futures, want)
	}
	// hw: batches per frame + root.
	c, err = sched.Run(sched.Options{Serial: true}, workload.HW(3, 8, 64).Make().Main)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(3*8 + 1); c.Futures != want {
		t.Errorf("hw futures = %d, want %d", c.Futures, want)
	}
	// pipeline: stages per item + root.
	c, err = sched.Run(sched.Options{Serial: true}, workload.Pipeline(12, 4, 2).Make().Main)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(12*4 + 1); c.Futures != want {
		t.Errorf("pipeline futures = %d, want %d", c.Futures, want)
	}
}

func TestByNameAndString(t *testing.T) {
	if workload.ByName("mm", workload.ScaleTest) == nil {
		t.Fatal("mm not found")
	}
	if workload.ByName("spine", workload.ScaleTest) == nil {
		t.Fatal("spine not found via extras")
	}
	if workload.ByName("pipeline", workload.ScaleTest) == nil {
		t.Fatal("pipeline not found via extras")
	}
	if workload.ByName("nope", workload.ScaleTest) != nil {
		t.Fatal("unexpected benchmark")
	}
	if s := workload.MM(32, 8).String(); s != "mm(N=32,B=8)" {
		t.Errorf("String = %q", s)
	}
	if s := workload.Ferret(8, 64).String(); s != "ferret(N=8)" {
		t.Errorf("String = %q", s)
	}
}

func TestBadParamsPanic(t *testing.T) {
	cases := []func(){
		func() { workload.MM(33, 8) },
		func() { workload.MM(32, 64) },
		func() { workload.Sort(0, 64) },
		func() { workload.SW(65, 16) },
		func() { workload.HW(0, 1, 64) },
		func() { workload.Ferret(0, 64) },
		func() { workload.Pipeline(0, 4, 2) },
		func() { workload.Pipeline(12, 4, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
