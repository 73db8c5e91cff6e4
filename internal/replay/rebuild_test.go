package replay_test

import (
	"slices"
	"testing"

	"sforder/internal/core"
	"sforder/internal/progen"
	"sforder/internal/replay"
	"sforder/internal/trace"
	"sforder/internal/workload"
)

// Options.RebuildWorkers once selected a parallel label-table rebuild;
// every replay now rebuilds in event order and the field is ignored. The
// bench adapter still sets it on DePa replays, so these tests pin that a
// nonzero value changes nothing: the reports are bit-identical to a run
// without it, and corrupt captures are rejected the same way.

// TestParallelRebuildMatchesSerialFuzz: on random programs, serially and
// parallel-recorded, DePa replay with RebuildWorkers 1, 4 and 8 produces
// the report of a replay without it, whose racy set equals online
// detection's and the exhaustive oracle's.
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
		serial, err := replay.Run(c, replay.Options{Workers: 2, Reach: core.SubstrateDePa})
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		if !sameAddrs(serial.RacyAddrs, want) {
			t.Fatalf("seed %d: serial replay %v, oracle %v", seed, serial.RacyAddrs, want)
		}
		for _, rw := range []int{1, 4, 8} {
			res, err := replay.Run(c, replay.Options{
				Workers: 2, RebuildWorkers: rw, Reach: core.SubstrateDePa,
			})
			if err != nil {
				t.Fatalf("seed %d rw%d: %v", seed, rw, err)
			}
			sameRaces(t, "depa", res, serial)
		}
	}
}

// TestParallelRebuildRejectsCorrupt: a sync naming a never-placed strand,
// edited into a genuine capture, is rejected with and without
// RebuildWorkers.
func TestParallelRebuildRejectsCorrupt(t *testing.T) {
	c := recordStandalone(t, progen.New(progen.Config{Seed: 1, MaxDepth: 3, MaxOps: 6}).Main())
	i := slices.IndexFunc(c.Events, func(ev trace.Event) bool { return ev.Op == trace.OpSync })
	if i < 0 {
		t.Fatal("capture has no sync event")
	}
	c.Events[i].A = c.Strands + 100
	if _, err := replay.Run(c, replay.Options{RebuildWorkers: 4, Reach: core.SubstrateDePa}); err == nil {
		t.Error("rebuild with RebuildWorkers accepted sync of unplaced strand")
	}
	if _, err := replay.Run(c, replay.Options{Workers: 1, Reach: core.SubstrateDePa}); err == nil {
		t.Error("serial rebuild accepted sync of unplaced strand")
	}
}

// TestParallelRebuildWorkloads: the five workloads replay identically
// with and without RebuildWorkers, every strand and access accounted for.
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
