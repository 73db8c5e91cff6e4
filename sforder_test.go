package sforder_test

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"sforder"
)

func TestQuickstartRace(t *testing.T) {
	for _, det := range []sforder.Detector{sforder.SFOrder, sforder.FOrder, sforder.MultiBags} {
		res, err := sforder.Run(sforder.Config{Detector: det, Serial: true}, func(t *sforder.Task) {
			h := t.Create(func(c *sforder.Task) any {
				c.Write(0)
				return 42
			})
			t.Write(0)
			_ = t.Get(h)
		})
		if err != nil {
			t.Fatalf("%v: %v", det, err)
		}
		if res.RaceCount == 0 {
			t.Errorf("%v: seeded race missed", det)
		}
		if len(res.Races) == 0 || res.Races[0].Addr != 0 {
			t.Errorf("%v: race record wrong: %v", det, res.Races)
		}
	}
}

func TestRaceFreeProgram(t *testing.T) {
	res, err := sforder.Run(sforder.Config{Workers: 4}, func(t *sforder.Task) {
		h := t.Create(func(c *sforder.Task) any {
			c.Write(1)
			return 1
		})
		t.Write(2)
		v := sforder.GetTyped[int](t, h)
		t.Write(1) // ordered after the future by the get
		_ = v
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount != 0 {
		t.Fatalf("false positives: %v", res.Races)
	}
	if res.Futures != 2 || res.Queries == 0 {
		t.Errorf("result metadata: %+v", res)
	}
}

// TestZeroConfigIsTheShippingHistory: Config{} runs the lock-avoiding
// access history — the configuration cmd/sforder and the benchmark run —
// and LockedHistory is the ablation that takes a page lock per access.
// Both report the same racy location.
func TestZeroConfigIsTheShippingHistory(t *testing.T) {
	const addrs, passes = 50, 4
	prog := func(t *sforder.Task) {
		t.Spawn(func(c *sforder.Task) {
			for p := 0; p < passes; p++ {
				for a := uint64(0); a < addrs; a++ {
					c.Read(a)
				}
			}
		})
		t.Write(7) // races with the child's reads of 7
		t.Sync()
	}
	shipping, err := sforder.Run(sforder.Config{Workers: 2, Stats: true}, prog)
	if err != nil {
		t.Fatal(err)
	}
	locked, err := sforder.Run(sforder.Config{Workers: 2, Stats: true, LockedHistory: true}, prog)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*sforder.Result{"zero Config": shipping, "LockedHistory": locked} {
		if len(res.Races) == 0 {
			t.Errorf("%s: the race on address 7 was missed", name)
		}
		for _, r := range res.Races {
			if r.Addr != 7 {
				t.Errorf("%s: race reported on %#x, only address 7 is racy", name, r.Addr)
			}
		}
	}
	if got := shipping.Stats["hist.fastpath_hits"]; got != (passes-1)*addrs {
		t.Errorf("zero Config: %d accesses absorbed by the strand buffer, want the %d repeats", got, (passes-1)*addrs)
	}
	if got := shipping.Stats["hist.lock_acquires"]; got != 2 {
		t.Errorf("zero Config: %d page-lock acquisitions, want one per strand that touched the page", got)
	}
	if got := locked.Stats["hist.lock_acquires"]; got != passes*addrs+1 {
		t.Errorf("LockedHistory: %d page-lock acquisitions, want one per access (%d)", got, passes*addrs+1)
	}
	if got := locked.Stats["hist.batch_flushes"]; got != 0 {
		t.Errorf("LockedHistory: %d batch flushes, want none", got)
	}
}

func TestReachabilityOnlyMode(t *testing.T) {
	res, err := sforder.Run(sforder.Config{ReachabilityOnly: true, Serial: true}, func(t *sforder.Task) {
		h := t.Create(func(c *sforder.Task) any { c.Write(7); return nil })
		t.Write(7) // a race — but accesses are not checked in reach mode
		t.Get(h)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount != 0 || res.Queries != 0 {
		t.Error("reach mode must not check accesses")
	}
	if res.ReachMemBytes <= 0 {
		t.Error("reach mode still maintains reachability structures")
	}
}

func TestNoDetector(t *testing.T) {
	res, err := sforder.Run(sforder.Config{Detector: sforder.NoDetector, Serial: true}, func(t *sforder.Task) {
		t.Write(1)
		t.Write(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount != 0 || res.ReachMemBytes != 0 {
		t.Error("NoDetector must not detect or account anything")
	}
}

func TestMultiBagsForcesSerial(t *testing.T) {
	// Even with Workers set, MultiBags must run (serially) and work.
	res, err := sforder.Run(sforder.Config{Detector: sforder.MultiBags, Workers: 8}, func(t *sforder.Task) {
		t.Spawn(func(c *sforder.Task) { c.Write(3) })
		t.Write(3)
		t.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount == 0 {
		t.Error("spawn race missed")
	}
}

func TestLRPolicyRejectedForFOrder(t *testing.T) {
	_, err := sforder.Run(sforder.Config{Detector: sforder.FOrder, Policy: sforder.ReadersLR}, func(*sforder.Task) {})
	if err == nil || !strings.Contains(err.Error(), "ReadersLR") {
		t.Fatalf("expected ReadersLR rejection, got %v", err)
	}
}

func TestGetTypedMismatchPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "not int") {
			t.Errorf("expected type mismatch panic, got %v", r)
		}
	}()
	sforder.Run(sforder.Config{Serial: true}, func(t *sforder.Task) {
		h := t.Create(func(*sforder.Task) any { return "hello" })
		sforder.GetTyped[int](t, h)
	})
}

func TestParallelPanicSurfacesAsError(t *testing.T) {
	_, err := sforder.Run(sforder.Config{Workers: 2}, func(t *sforder.Task) {
		t.Spawn(func(*sforder.Task) { panic("kaboom") })
		t.Sync()
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("expected propagated panic, got %v", err)
	}
}

func TestWSPOrderDetector(t *testing.T) {
	res, err := sforder.Run(sforder.Config{Detector: sforder.WSPOrder, Workers: 2}, func(t *sforder.Task) {
		t.Spawn(func(c *sforder.Task) { c.Write(4) })
		t.Write(4)
		t.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount == 0 {
		t.Error("spawn race missed by WSP-Order")
	}
	// LR policy is sound for WSP-Order too.
	if _, err := sforder.Run(sforder.Config{Detector: sforder.WSPOrder, Policy: sforder.ReadersLR, Serial: true},
		func(t *sforder.Task) { t.Read(1) }); err != nil {
		t.Errorf("ReadersLR with WSPOrder rejected: %v", err)
	}
	// Futures are rejected loudly.
	_, err = sforder.Run(sforder.Config{Detector: sforder.WSPOrder, Workers: 2}, func(t *sforder.Task) {
		t.Create(func(*sforder.Task) any { return nil })
	})
	if err == nil || !strings.Contains(err.Error(), "fork-join") {
		t.Errorf("expected future rejection, got %v", err)
	}
}

func TestParallelForDetection(t *testing.T) {
	// Disjoint writes: race-free.
	res, err := sforder.Run(sforder.Config{Workers: 3}, func(t *sforder.Task) {
		t.ParallelFor(0, 100, 8, func(ti *sforder.Task, i int) {
			ti.Write(uint64(i))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount != 0 {
		t.Fatalf("disjoint parallel writes raced: %v", res.Races)
	}
	// All iterations write one cell: racy.
	res, err = sforder.Run(sforder.Config{Serial: true}, func(t *sforder.Task) {
		t.ParallelFor(0, 16, 2, func(ti *sforder.Task, i int) {
			ti.Write(7)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount == 0 {
		t.Fatal("racy parallel loop not reported")
	}
}

func TestDetectorStrings(t *testing.T) {
	want := map[sforder.Detector]string{
		sforder.SFOrder: "SF-Order", sforder.FOrder: "F-Order",
		sforder.MultiBags: "MultiBags", sforder.NoDetector: "none",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", d, d.String(), s)
		}
	}
	// Detector and ReachBackend are aliases of internal types; the public
	// names, constants and spellings are the API.
	var _ sforder.Detector = sforder.WSPOrder
	var _ sforder.ReachBackend = sforder.ReachOM
	if sforder.ReachDePa.String() != "depa" || sforder.ReachOM.String() != "om" {
		t.Errorf("ReachBackend strings: %q %q", sforder.ReachOM, sforder.ReachDePa)
	}
}

// TestReplayRoundTrip records a racy run through the public API and
// replays it barriered and streamed, on both substrates, checking all
// agree with the online verdict.
func TestReplayRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	main := func(t *sforder.Task) {
		h := t.Create(func(c *sforder.Task) any {
			c.Write(3)
			return nil
		})
		t.Write(3)
		t.Get(h)
	}
	res, err := sforder.Run(sforder.Config{Serial: true, Record: &buf}, main)
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount == 0 {
		t.Fatal("seeded race missed online")
	}
	raw := buf.Bytes()
	for _, cfg := range []sforder.ReplayConfig{
		{Workers: 2, Reach: sforder.ReachDePa},
		{Workers: 2, Streaming: true, Reach: sforder.ReachDePa},
		{Workers: 2, Streaming: true}, // default OM backend streams too
	} {
		rr, err := sforder.Replay(bytes.NewReader(raw), cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if rr.RaceCount == 0 || len(rr.RacyAddrs) != 1 || rr.RacyAddrs[0] != 3 {
			t.Fatalf("%+v: replay verdict %d races on %v, want addr 3",
				cfg, rr.RaceCount, rr.RacyAddrs)
		}
		if cfg.Streaming != rr.Streamed {
			t.Fatalf("%+v: streamed=%v", cfg, rr.Streamed)
		}
	}
}

// TestRunReleasesArenaSlabs: Run hands the reachability arenas' slabs
// back to their pools when it returns — also when the program panicked
// on the way — so a second Run of the same program draws them from there
// instead of the heap. With the pools emptied first and the collector
// off in between, the second run must allocate less than the first by
// most of the slab bytes the first held.
func TestRunReleasesArenaSlabs(t *testing.T) {
	for _, crash := range []bool{false, true} {
		prog := func(t *sforder.Task) {
			for i := 0; i < 20000; i++ {
				t.Spawn(func(c *sforder.Task) { c.Write(uint64(i)) })
			}
			t.Sync()
			if crash {
				panic("kaboom")
			}
		}
		run := func() (allocated, slabs uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := sforder.Run(sforder.Config{Workers: 1, Stats: true}, prog)
			runtime.ReadMemStats(&after)
			if crash != (err != nil) || res == nil {
				t.Fatalf("crash=%v: result %v, error %v", crash, res, err)
			}
			return after.TotalAlloc - before.TotalAlloc, uint64(res.Stats["core.arena_bytes"])
		}
		runtime.GC()
		runtime.GC() // twice: the first only moves a sync.Pool's contents to its victim cache
		restore := debug.SetGCPercent(-1)
		first, slabs := run()
		second, _ := run()
		debug.SetGCPercent(restore)
		if slabs == 0 {
			t.Fatalf("crash=%v: the run held no arena slabs; the test measures nothing", crash)
		}
		if second+slabs/2 > first {
			t.Errorf("crash=%v: second run allocated %d bytes, first %d holding %d of slabs: slabs were not reused", crash, second, first, slabs)
		}
	}
}
