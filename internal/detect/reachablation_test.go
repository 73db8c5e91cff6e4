package detect_test

import (
	"testing"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/engine"
	"sforder/internal/harness"
	"sforder/internal/obsv"
	"sforder/internal/progen"
	"sforder/internal/sched"
	"sforder/internal/workload"
)

// runRacyCfg is runRacy with an explicit core.Config: the racy set of a
// serial run of p on that substrate.
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

// reachCfgs are the substrate configurations the ABL10/ABL11 fuzzes
// sweep: the OM pair and DePa cords.
func reachCfgs() []core.Config {
	return []core.Config{
		{Reach: core.SubstrateOM},
		{Reach: core.SubstrateDePa},
	}
}

// TestReachSubstrateMatchesOracleFuzz is the ABL10/ABL11 fuzz: on
// random programs, the racy-location set under the DePa label
// substrate must be identical to both the OM substrate's and the
// exhaustive dag oracle's (serial engine).
func TestReachSubstrateMatchesOracleFuzz(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 5})
		want := runOracle(t, p)
		for _, ccfg := range reachCfgs() {
			got := runRacyCfg(t, p, ccfg, detect.Options{FastPath: true})
			if !sameAddrs(got, want) {
				t.Fatalf("seed %d reach=%v: got %v, oracle %v", seed, ccfg.Reach, got, want)
			}
		}
	}
}

// TestReachSubstrateParallelAgreement runs random programs on the
// parallel engine (4 workers, lane arenas active) under both
// substrates and compares the racy set to the serial oracle. Repeats catch schedule-dependent misbehavior;
// under -race this doubles as the label-publication race check.
func TestReachSubstrateParallelAgreement(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 5})
		want := runOracle(t, p)
		for _, ccfg := range []core.Config{
			{Reach: core.SubstrateDePa},
			{Reach: core.SubstrateOM},
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

// TestReachSubstrateAdversarialSpine pins the ABL10 claim on the
// renumber-heavy adversarial spawn spine: the OM substrate must visibly
// pay for the pattern — bucket splits plus top-level renumberings, all
// under the maintenance lock — while the DePa substrate completes the
// identical run with zero maintenance-lock acquisitions (its gauges do
// not even exist) and deep labels instead.
func TestReachSubstrateAdversarialSpine(t *testing.T) {
	const depth = 1500
	run := func(sub core.Substrate) map[string]int64 {
		t.Helper()
		reg := obsv.NewRegistry()
		res, err := harness.Run(workload.Spine(depth, 2), harness.Config{Mode: harness.Full, Config: engine.Config{
			Workers: 4, Reach: sub, Stats: reg,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.RaceCount != 0 {
			t.Fatalf("spine is race-free, %v reported %d races", sub, res.RaceCount)
		}
		return res.Stats
	}

	om := run(core.SubstrateOM)
	if splits := om["om.english.splits"] + om["om.hebrew.splits"]; splits == 0 {
		t.Error("spine must force OM bucket splits")
	}
	if renum := om["om.english.renumbers"] + om["om.hebrew.renumbers"]; renum == 0 {
		t.Error("spine must force OM top-level renumberings")
	}
	if om["om.lock_acquires"] == 0 {
		t.Error("OM maintenance work must take the maintenance lock")
	}

	const sub = core.SubstrateDePa
	depa := run(sub)
	if got := depa["om.lock_acquires"]; got != 0 {
		t.Errorf("%v substrate took %d maintenance-lock acquisitions, want 0", sub, got)
	}
	if got := depa["om.english.splits"] + depa["om.hebrew.splits"]; got != 0 {
		t.Errorf("%v substrate reported %d OM splits, want 0", sub, got)
	}
	if depa["depa.labels"] == 0 || depa["depa.label_mem_bytes"] == 0 {
		t.Errorf("%v substrate must account its labels", sub)
	}
	if maxd := depa["depa.max_depth"]; maxd < depth {
		t.Errorf("%v depa.max_depth = %d, want >= spine depth %d", sub, maxd, depth)
	}
}

// TestCordSpineEfficiency pins the cords' numbers on the spine at depth
// 1500, full mode (EXPERIMENTS ABL10/ABL11): the flat representation put
// 1,005,824 bytes into labels and averaged ~24 compare words per
// query; the prefix-sharing cords must cut both by at least 10x
// (≤ 100,582 bytes, mean ≤ 2.39 words). The cord arithmetic says
// ~4501 × 16-byte headers + ~140 × 24-byte shared chunks ≈ 75 KB and
// a mean within a word or two of 1 — the bounds leave slack for
// schedule jitter, not for an O(depth) regression.
func TestCordSpineEfficiency(t *testing.T) {
	const depth = 1500
	const sub = core.SubstrateDePa
	reg := obsv.NewRegistry()
	res, err := harness.Run(workload.Spine(depth, 2), harness.Config{Mode: harness.Full, Config: engine.Config{
		Workers: 4, Reach: sub, Stats: reg,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount != 0 {
		t.Fatalf("spine is race-free, %v reported %d races", sub, res.RaceCount)
	}
	s := res.Stats
	if mem := s["depa.label_mem_bytes"]; mem == 0 || mem > 100_582 {
		t.Errorf("%v: label_mem_bytes = %d, want (0, 100582] (10x under the flat labels' 1005824)", sub, mem)
	}
	cmps, words := s["depa.compares"], s["depa.compare_words"]
	if cmps == 0 {
		t.Fatalf("%v: spine produced no label compares", sub)
	}
	// mean = words/cmps ≤ 2.39, checked in integers.
	if words*100 > cmps*239 {
		t.Errorf("%v: mean compare words = %d/%d ≈ %.2f, want <= 2.39 (10x under the flat labels' ~23.9)",
			sub, words, cmps, float64(words)/float64(cmps))
	}
	if s["depa.chunks"] == 0 {
		t.Errorf("%v: depth-1500 spine must freeze chunk nodes", sub)
	}
}

// TestDeepChainRace plants two races in a 300-stage future chain — one
// between shallow strands, whose cord labels are a tail word and no
// chunk, one 150 stages deep, past the first frozen chunk — and demands
// both substrates report exactly the planted addresses, serially and at
// 4 workers. This is the depth the progen fuzz can't reach.
func TestDeepChainRace(t *testing.T) {
	const (
		stages    = 300
		shallowAt = 2   // labels still fit the tail word
		deepAt    = 150 // labels carry frozen chunks
		addrA     = 7   // raced by the shallow stage
		addrB     = 8   // raced by the deep stage
	)
	main := func(t *sched.Task) {
		rogue := t.Create(func(c *sched.Task) any {
			c.Write(addrA)
			c.Write(addrB)
			return nil
		})
		var prev *sched.Future
		for sg := 0; sg < stages; sg++ {
			sg, dep := sg, prev
			prev = t.Create(func(c *sched.Task) any {
				if dep != nil {
					c.Get(dep)
				}
				c.Write(uint64(100 + sg)) // chain-private, race-free
				switch sg {
				case shallowAt:
					c.Write(addrA)
				case deepAt:
					c.Write(addrB)
				}
				return nil
			})
		}
		t.Get(prev)
		t.Get(rogue)
	}
	want := []uint64{addrA, addrB}
	for _, ccfg := range []core.Config{
		{Reach: core.SubstrateOM},
		{Reach: core.SubstrateDePa},
	} {
		for _, workers := range []int{0, 4} {
			reach := core.New(ccfg)
			hist := detect.NewHistory(detect.Options{Reach: reach, FastPath: true})
			opts := sched.Options{Serial: workers == 0, Workers: workers, Tracer: reach, Checker: hist}
			if _, err := sched.Run(opts, main); err != nil {
				t.Fatal(err)
			}
			if got := hist.RacyAddrs(); !sameAddrs(got, want) {
				t.Fatalf("reach=%v workers=%d: racy %v, want %v", ccfg.Reach, workers, got, want)
			}
		}
	}
}
