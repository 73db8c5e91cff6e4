package core_test

import (
	"fmt"
	"testing"

	"sforder/internal/core"
	"sforder/internal/dag"
	"sforder/internal/detect"
	"sforder/internal/oracle"
	"sforder/internal/progen"
	"sforder/internal/sched"
)

// runFull executes main with the complete SF-Order race detector (reach
// + access history) plus the oracle logger and dag recorder side by
// side, and returns detector-reported and oracle ground-truth racy
// address sets.
func runFull(t *testing.T, policy detect.ReaderPolicy, workers int, serial bool, main func(*sched.Task)) (got, want []uint64, hist *detect.History) {
	t.Helper()
	reach := core.New(core.Config{})
	hist = detect.NewHistory(detect.Options{
		Reach:  reach,
		Policy: policy,
		LeftOf: reach.LeftOf,
	})
	rec := dag.NewRecorder()
	log := oracle.NewLogger()
	_, err := sched.Run(sched.Options{
		Serial:  serial,
		Workers: workers,
		Tracer:  sched.MultiTracer{reach, rec},
		Checker: multiChecker{hist, log},
	}, main)
	if err != nil {
		t.Fatal(err)
	}
	return hist.RacyAddrs(), log.RacyAddrs(rec), hist
}

// multiChecker fans accesses to both the real history and the oracle.
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

// TestDetectorSeededRace: a future body and the creator's continuation
// write the same address concurrently — the canonical future race.
func TestDetectorSeededRace(t *testing.T) {
	for _, policy := range []detect.ReaderPolicy{detect.ReadersAll, detect.ReadersLR} {
		got, want, _ := runFull(t, policy, 0, true, func(t *sched.Task) {
			h := t.Create(func(c *sched.Task) any { c.Write(100); return nil })
			t.Write(100) // races with the future body
			t.Get(h)
			t.Write(100) // after the get: no race
		})
		if !sameAddrs(got, want) || len(got) != 1 || got[0] != 100 {
			t.Errorf("policy %v: got %v, oracle %v", policy, got, want)
		}
	}
}

// TestDetectorRaceFree: a race-free wavefront over futures reports
// nothing.
func TestDetectorRaceFree(t *testing.T) {
	main := func(t *sched.Task) {
		prev := t.Create(func(c *sched.Task) any { c.Write(0); return nil })
		for i := 1; i < 8; i++ {
			p, addr := prev, uint64(i)
			prev = t.Create(func(c *sched.Task) any {
				c.Get(p)
				c.Read(addr - 1)
				c.Write(addr)
				return nil
			})
		}
		t.Get(prev)
		for i := 0; i < 8; i++ {
			t.Read(uint64(i))
		}
	}
	for _, policy := range []detect.ReaderPolicy{detect.ReadersAll, detect.ReadersLR} {
		got, want, _ := runFull(t, policy, 0, true, main)
		if len(want) != 0 {
			t.Fatalf("oracle found unexpected races: %v", want)
		}
		if len(got) != 0 {
			t.Errorf("policy %v: false positives on %v", policy, got)
		}
	}
}

// TestDetectorReadWriteFutureRace: parallel read in a future vs write in
// the continuation.
func TestDetectorReadWriteFutureRace(t *testing.T) {
	got, want, _ := runFull(t, detect.ReadersLR, 0, true, func(t *sched.Task) {
		h := t.Create(func(c *sched.Task) any { c.Read(55); return nil })
		t.Write(55)
		t.Get(h)
	})
	if !sameAddrs(got, want) || len(got) != 1 {
		t.Errorf("got %v, oracle %v", got, want)
	}
}

// TestDetectorMatchesOracleOnRandomPrograms is the main correctness
// battery: on random structured-future programs, the detector's racy
// location set must equal the oracle's exactly, under both reader
// policies, serial execution.
func TestDetectorMatchesOracleOnRandomPrograms(t *testing.T) {
	for _, policy := range []detect.ReaderPolicy{detect.ReadersAll, detect.ReadersLR} {
		for seed := int64(0); seed < 40; seed++ {
			p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 6})
			got, want, _ := runFull(t, policy, 0, true, p.Main())
			if !sameAddrs(got, want) {
				t.Errorf("policy %v seed %d: detector %v, oracle %v", policy, seed, got, want)
			}
		}
	}
}

// TestDetectorMatchesOracleParallel repeats the battery under the
// parallel engine. The dag (and therefore the set of racy locations) is
// schedule-independent, and the detector must find the same set even
// though accesses interleave differently.
func TestDetectorMatchesOracleParallel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 6})
		got, want, _ := runFull(t, detect.ReadersAll, 4, false, p.Main())
		if !sameAddrs(got, want) {
			t.Errorf("seed %d: detector %v, oracle %v", seed, got, want)
		}
	}
}

// TestPoliciesAgreeOnLocations: ReadersAll and ReadersLR must flag the
// same locations (the §3.5 theorem), even though they may report
// different example pairs.
func TestPoliciesAgreeOnLocations(t *testing.T) {
	for seed := int64(50); seed < 80; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 5})
		all, _, _ := runFull(t, detect.ReadersAll, 0, true, p.Main())
		lr, _, _ := runFull(t, detect.ReadersLR, 0, true, p.Main())
		if !sameAddrs(all, lr) {
			t.Errorf("seed %d: ReadersAll %v vs ReadersLR %v", seed, all, lr)
		}
	}
}

// TestLRBoundTwoK: under ReadersLR the history never holds more than 2k
// readers per location (§3.5).
func TestLRBoundTwoK(t *testing.T) {
	// k futures all reading one address concurrently, many reads each.
	k := 12
	main := func(t *sched.Task) {
		var hs []*sched.Future
		for i := 0; i < k; i++ {
			hs = append(hs, t.Create(func(c *sched.Task) any {
				for j := 0; j < 5; j++ {
					c.Read(77)
					c.Spawn(func(cc *sched.Task) { cc.Read(77) })
					c.Sync()
				}
				return nil
			}))
		}
		for _, h := range hs {
			t.Get(h)
		}
	}
	_, _, hist := runFull(t, detect.ReadersLR, 0, true, main)
	if max := hist.MaxReaders(); max > 2*(k+1) {
		t.Errorf("MaxReaders = %d, exceeds 2k = %d", max, 2*(k+1))
	}

	// Sanity contrast: ReadersAll retains many more on the same program.
	reach := core.New(core.Config{})
	all := detect.NewHistory(detect.Options{Reach: reach})
	if _, err := sched.Run(sched.Options{Serial: true, Tracer: reach, Checker: all}, main); err != nil {
		t.Fatal(err)
	}
	if all.MaxReaders() <= 2*(k+1) {
		t.Skipf("ReadersAll kept %d readers; contrast not observable at this size", all.MaxReaders())
	}
}

// TestQueriesCounted: the reach component counts access-history queries.
func TestQueriesCounted(t *testing.T) {
	reach := core.New(core.Config{})
	hist := detect.NewHistory(detect.Options{Reach: reach})
	_, err := sched.Run(sched.Options{Serial: true, Tracer: reach, Checker: hist}, func(t *sched.Task) {
		t.Write(1)
		t.Spawn(func(c *sched.Task) { c.Read(1) })
		t.Sync()
		t.Write(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if reach.Queries() == 0 {
		t.Error("expected reachability queries during full detection")
	}
}

func TestRaceStringFormat(t *testing.T) {
	r := detect.Race{Addr: 0x64, PrevStrand: 3, CurStrand: 9, PrevFuture: 1, CurFuture: 0,
		Prev: detect.AccessWrite, Cur: detect.AccessRead}
	want := "race on 0x64: write by s3/f1 vs read by s9/f0"
	if got := fmt.Sprint(r); got != want {
		t.Errorf("Race.String() = %q, want %q", got, want)
	}
}
