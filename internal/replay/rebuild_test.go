package replay_test

import (
	"testing"

	"sforder/internal/core"
	"sforder/internal/progen"
	"sforder/internal/replay"
	"sforder/internal/trace"
	"sforder/internal/workload"
)

// labelSubstrates are the substrates the parallel rebuild supports.
var labelSubstrates = []struct {
	name string
	sub  core.Substrate
}{
	{"depa", core.SubstrateDePa},
}

// sameRaces compares the merged detailed reports field by field.
func sameRaces(t *testing.T, tag string, a, b *replay.Result) {
	t.Helper()
	if a.RaceCount != b.RaceCount || len(a.Races) != len(b.Races) {
		t.Fatalf("%s: %d races (%d retained) vs %d (%d)",
			tag, a.RaceCount, len(a.Races), b.RaceCount, len(b.Races))
	}
	for i := range a.Races {
		if a.Races[i] != b.Races[i] {
			t.Fatalf("%s: race %d differs: %v vs %v", tag, i, a.Races[i], b.Races[i])
		}
	}
	if !sameAddrs(a.RacyAddrs, b.RacyAddrs) {
		t.Fatalf("%s: racy sets differ: %v vs %v", tag, a.RacyAddrs, b.RacyAddrs)
	}
}

// TestParallelRebuildMatchesSerialFuzz is the ABL13 verdict-equality
// fuzz: on random programs — serially and parallel-recorded — the
// precomputed-table rebuild at 1, 4 and 8 workers must produce reports
// bit-identical to the serial event-order rebuild, whose racy set must
// itself equal online detection's and the exhaustive oracle's.
func TestParallelRebuildMatchesSerialFuzz(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 6})
		recWorkers := 1
		if seed%3 == 2 {
			recWorkers = 4 // parallel-recorded: ids not monotone in file order
		}
		c, online := record(t, p.Main(), recWorkers)
		want := runOracle(t, p.Main())
		if !sameAddrs(online, want) {
			t.Fatalf("seed %d: online %v, oracle %v", seed, online, want)
		}
		for _, sub := range labelSubstrates {
			serial, err := replay.Run(c, replay.Options{
				Workers: 2, Reach: sub.sub,
			})
			if err != nil {
				t.Fatalf("seed %d %s serial: %v", seed, sub.name, err)
			}
			if !sameAddrs(serial.RacyAddrs, want) {
				t.Fatalf("seed %d %s: serial replay %v, oracle %v", seed, sub.name, serial.RacyAddrs, want)
			}
			for _, rw := range []int{1, 4, 8} {
				res, err := replay.Run(c, replay.Options{
					Workers: 2, RebuildWorkers: rw, Reach: sub.sub,
				})
				if err != nil {
					t.Fatalf("seed %d %s/rw%d: %v", seed, sub.name, rw, err)
				}
				if wantPar := rw > 1; res.RebuildParallel != wantPar {
					t.Fatalf("seed %d %s/rw%d: parallel=%v", seed, sub.name, rw, res.RebuildParallel)
				}
				sameRaces(t, sub.name, res, serial)
			}
		}
	}
}

// TestParallelRebuildOMFallsBack: the OM substrate has no precomputable
// labels; RebuildWorkers > 1 must fall back to the serial rebuild, not
// error, and still reach the same verdict.
func TestParallelRebuildOMFallsBack(t *testing.T) {
	p := progen.New(progen.Config{Seed: 9, MaxDepth: 4, MaxOps: 8, Addrs: 6})
	c, online := record(t, p.Main(), 1)
	res, err := replay.Run(c, replay.Options{Workers: 2, RebuildWorkers: 4, Reach: core.SubstrateOM})
	if err != nil {
		t.Fatal(err)
	}
	if res.RebuildParallel || res.RebuildWorkers != 1 {
		t.Fatalf("OM rebuild ran parallel (workers=%d)", res.RebuildWorkers)
	}
	if !sameAddrs(res.RacyAddrs, online) {
		t.Fatalf("replay %v, online %v", res.RacyAddrs, online)
	}
}

// TestParallelRebuildRejectsCorrupt: the index pass guards the parallel
// path against the same corruptions the serial rebuild rejects (the
// captures come from trace_test's corrupt catalogue via the recorder).
func TestParallelRebuildRejectsCorrupt(t *testing.T) {
	// A sync naming a never-placed strand is the case only the parallel
	// path's index used to catch; both paths must now reject it.
	c := recordStandalone(t, progen.New(progen.Config{Seed: 1, MaxDepth: 3, MaxOps: 6}).Main())
	if len(c.Events) == 0 {
		t.Fatal("empty capture")
	}
	// Corrupt in memory: point the first sync at an absent strand id.
	corrupted := false
	for i := range c.Events {
		if c.Events[i].Op == trace.OpSync {
			c.Events[i].A = c.Strands + 100
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Skip("capture has no sync event")
	}
	if _, err := replay.Run(c, replay.Options{RebuildWorkers: 4, Reach: core.SubstrateDePa}); err == nil {
		t.Error("parallel rebuild accepted sync of unplaced strand")
	}
	if _, err := replay.Run(c, replay.Options{Workers: 1, Reach: core.SubstrateDePa}); err == nil {
		t.Error("serial rebuild accepted sync of unplaced strand")
	}
}

// TestParallelRebuildSpeedup pins the acceptance ratio on the two
// deep-structure workloads (spine, pipeline): at 4 rebuild workers the
// parallel label construction's critical path — the largest worker
// segment — must be at most half the total fill work, i.e. the
// parallelized portion of the rebuild costs ≤ 0.5× its serial form.
// (The counter ratio is the machine-independent pin; wall-clock
// replay.rebuild_ns scaling needs multi-core hardware.)
func TestParallelRebuildSpeedup(t *testing.T) {
	for _, name := range []string{"spine", "pipeline"} {
		b := workload.ByName(name, workload.ScaleTest)
		if b == nil {
			t.Fatalf("workload %s missing", name)
		}
		run := b.Make()
		c, online := record(t, run.Main, 1)
		res, err := replay.Run(c, replay.Options{
			Workers: 2, RebuildWorkers: 4, Reach: core.SubstrateDePa,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.RebuildParallel {
			t.Fatalf("%s: rebuild did not run parallel", name)
		}
		if res.RebuildLabels != c.Strands {
			t.Fatalf("%s: table built %d labels for %d strands", name, res.RebuildLabels, c.Strands)
		}
		if res.RebuildWork == 0 || res.RebuildMaxSegment == 0 {
			t.Fatalf("%s: no fill work accounted (%d/%d)", name, res.RebuildMaxSegment, res.RebuildWork)
		}
		if 2*res.RebuildMaxSegment > res.RebuildWork {
			t.Fatalf("%s: max segment %d of %d work units — critical path above 0.5× serial at 4 workers",
				name, res.RebuildMaxSegment, res.RebuildWork)
		}
		if !sameAddrs(res.RacyAddrs, online) {
			t.Fatalf("%s: replay %v, online %v", name, res.RacyAddrs, online)
		}
	}
}

// TestParallelRebuildWorkloads: the five workloads replay identically
// through serial and parallel rebuilds at every worker count.
func TestParallelRebuildWorkloads(t *testing.T) {
	for _, name := range []string{"mm", "sort", "hw", "spine", "pipeline"} {
		b := workload.ByName(name, workload.ScaleTest)
		run := b.Make()
		c, _ := record(t, run.Main, 1)
		serial, err := replay.Run(c, replay.Options{Workers: 2, Reach: core.SubstrateDePa})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, rw := range []int{4, 8} {
			res, err := replay.Run(c, replay.Options{Workers: 2, RebuildWorkers: rw, Reach: core.SubstrateDePa})
			if err != nil {
				t.Fatalf("%s/rw%d: %v", name, rw, err)
			}
			sameRaces(t, name, res, serial)
			if res.Strands != c.Strands || res.Entries != c.Entries {
				t.Fatalf("%s/rw%d: processed %d/%d strands, %d/%d entries",
					name, rw, res.Strands, c.Strands, res.Entries, c.Entries)
			}
		}
	}
}
