package detect_test

import (
	"testing"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/progen"
	"sforder/internal/sched"
)

// runRacyCfg is runRacy with an explicit core.Config, for the ABL8 knob
// grid (fine-grained vs global OM locking, arenas vs heap).
func runRacyCfg(t *testing.T, p *progen.Program, ccfg core.Config, opts detect.Options) []uint64 {
	t.Helper()
	reach := core.New(ccfg)
	opts.Reach = reach
	hist := detect.NewHistory(opts)
	if _, err := sched.Run(sched.Options{Serial: true, Tracer: reach, Checker: hist}, p.Main()); err != nil {
		t.Fatal(err)
	}
	return hist.RacyAddrs()
}

// TestOMLockArenaMatchesOracleFuzz extends the fast-path fuzz to the PR
// 4 ablation knobs: on random programs, the racy-location set must be
// identical to the exhaustive oracle with OM locking fine-grained or
// global and arenas on or off.
func TestOMLockArenaMatchesOracleFuzz(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 5})
		want := runOracle(t, p)
		for _, global := range []bool{false, true} {
			for _, noArena := range []bool{false, true} {
				ccfg := core.Config{GlobalOMLock: global, NoArena: noArena}
				got := runRacyCfg(t, p, ccfg, detect.Options{FastPath: true})
				if !sameAddrs(got, want) {
					t.Fatalf("seed %d global=%v noarena=%v: got %v, oracle %v",
						seed, global, noArena, got, want)
				}
			}
		}
	}
}

// TestOMLockArenaParallelAgreement runs random programs on the parallel
// engine (4 workers, lane arenas active since the Reach is the direct
// Tracer) under every knob combination and compares the racy set to the
// serial oracle. Repeats catch schedule-dependent misbehavior of the
// fine-grained insert path.
func TestOMLockArenaParallelAgreement(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 5})
		want := runOracle(t, p)
		for _, ccfg := range []core.Config{
			{}, // fine-grained + arenas (the default)
			{GlobalOMLock: true},
			{NoArena: true},
			{GlobalOMLock: true, NoArena: true},
		} {
			for rep := 0; rep < 2; rep++ {
				reach := core.New(ccfg)
				hist := detect.NewHistory(detect.Options{Reach: reach, FastPath: true})
				if _, err := sched.Run(sched.Options{Workers: 4, Tracer: reach, Checker: hist}, p.Main()); err != nil {
					t.Fatal(err)
				}
				if got := hist.RacyAddrs(); !sameAddrs(got, want) {
					t.Fatalf("seed %d cfg %+v rep %d: parallel %v, oracle %v",
						seed, ccfg, rep, got, want)
				}
			}
		}
	}
}
