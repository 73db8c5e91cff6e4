package engine_test

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sforder/internal/core"
	"sforder/internal/dag"
	"sforder/internal/detect"
	"sforder/internal/engine"
	"sforder/internal/oracle"
	"sforder/internal/progen"
	"sforder/internal/replay"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// program is one input of the lattice: main builds a fresh body per run
// and want is the dag oracle's racy-address set.
type program struct {
	name     string
	forkJoin bool // no futures: the only programs WSP-Order accepts
	main     func() func(*sched.Task)
	want     []uint64
}

// forkJoinPrograms are hand-written futures-free programs (progen has no
// futures-free mode), with and without races, shaped to exercise both
// reader policies: parallel readers of one location followed by a writer.
func forkJoinPrograms() []*program {
	fixed := func(name string, body func(*sched.Task)) *program {
		return &program{name: name, forkJoin: true, main: func() func(*sched.Task) { return body }}
	}
	return []*program{
		fixed("spawn-write-write", func(t *sched.Task) {
			t.Spawn(func(c *sched.Task) { c.Write(4) })
			t.Write(4)
			t.Sync()
			t.Write(4) // ordered by the sync
		}),
		fixed("spawn-loop-disjoint", func(t *sched.Task) {
			for i := 0; i < 64; i++ {
				t.Spawn(func(c *sched.Task) { c.Write(uint64(i)) })
			}
			t.Sync()
		}),
		fixed("spawn-loop-one-cell", func(t *sched.Task) {
			for i := 0; i < 16; i++ {
				t.Spawn(func(c *sched.Task) { c.Write(7) })
			}
			t.Sync()
		}),
		fixed("readers-then-writer", func(t *sched.Task) {
			for i := 0; i < 3; i++ {
				t.Spawn(func(c *sched.Task) {
					c.Read(9)
					c.Read(300) // a second shadow page
					c.Spawn(func(g *sched.Task) { g.Read(9) })
					c.Sync()
				})
			}
			t.Write(9) // races with every reader
			t.Sync()
			t.Write(300) // ordered after them
		}),
	}
}

// corpus is the one set of programs every cell runs: generated
// structured-future programs (single accesses over a few addresses, and
// runs straddling shadow pages) plus the fork-join programs, each with
// its oracle verdict.
func corpus(t *testing.T) []*program {
	t.Helper()
	var ps []*program
	racy := 0
	for _, pc := range []progen.Config{
		{MaxDepth: 4, MaxOps: 8, Addrs: 5},
		{MaxDepth: 4, MaxOps: 8, Addrs: 5},
		{MaxDepth: 4, MaxOps: 8, Addrs: 5},
		{MaxDepth: 4, MaxOps: 8, Addrs: 5},
		{MaxDepth: 5, MaxOps: 6, Addrs: 16},
		{MaxDepth: 5, MaxOps: 6, Addrs: 16},
		{MaxDepth: 6, MaxOps: 8, Addrs: 32},
		{MaxDepth: 4, MaxOps: 8, Addrs: 700, MaxRun: 48},
		{MaxDepth: 4, MaxOps: 8, Addrs: 700, MaxRun: 48},
		{MaxDepth: 3, MaxOps: 8, Addrs: 1800, MaxRun: 900},
	} {
		pc.Seed = int64(len(ps))
		pg := progen.New(pc)
		ps = append(ps, &program{name: fmt.Sprintf("progen-%d", pc.Seed), main: pg.Main})
	}
	ps = append(ps, forkJoinPrograms()...)
	for _, p := range ps {
		rec, log := dag.NewRecorder(), oracle.NewLogger()
		if _, err := sched.Run(sched.Options{Serial: true, Tracer: rec, Checker: log}, p.main()); err != nil {
			t.Fatalf("%s: oracle run: %v", p.name, err)
		}
		p.want = log.RacyAddrs(rec)
		if len(p.want) > 0 {
			racy++
		}
	}
	if racy < 3 || racy > len(ps)-3 {
		t.Fatalf("%d of %d corpus programs race: the lattice needs both kinds", racy, len(ps))
	}
	return ps
}

// TestLatticeAgainstOracle is the standing conformance table: every legal
// cell of detector × substrate × executor × reader policy × history path
// runs the whole corpus, and its racy-address set must equal the dag
// oracle's — online, online while recording, and offline through the
// barriered and the streamed replay of that recording. The paper's
// evaluation is differential (SF-Order, F-Order and MultiBags report the
// same races on structured futures), so the detectors are rows of one
// table.
func TestLatticeAgainstOracle(t *testing.T) {
	type row struct {
		det      engine.Detector
		reach    core.Substrate
		lr       bool // ReadersLR is sound
		serial   bool // sequential algorithm: the serial executor only
		forkJoin bool // rejects futures
	}
	rows := []row{
		{det: engine.SFOrder, reach: core.SubstrateOM, lr: true},
		{det: engine.SFOrder, reach: core.SubstrateDePa, lr: true},
		{det: engine.SFOrder, reach: core.SubstrateHybrid, lr: true},
		{det: engine.FOrder},
		{det: engine.MultiBags, serial: true},
		{det: engine.WSPOrder, lr: true, forkJoin: true},
	}
	type exec struct {
		name    string
		serial  bool
		workers int
	}
	execs := []exec{{"serial", true, 0}, {"w1", false, 1}, {"w4", false, 4}}
	programs := corpus(t)

	for _, r := range rows {
		for _, ex := range execs {
			if r.serial && !ex.serial {
				continue
			}
			for _, policy := range []detect.ReaderPolicy{detect.ReadersAll, detect.ReadersLR} {
				if policy == detect.ReadersLR && !r.lr {
					continue
				}
				for _, locked := range []bool{false, true} {
					cfg := engine.Config{
						Detector: r.det, Reach: r.reach, Serial: ex.serial, Workers: ex.workers,
						Policy: policy, LockedHistory: locked,
					}
					name := fmt.Sprintf("%v-%v/%s/%v/locked=%v", r.det, r.reach, ex.name, policy, locked)
					t.Run(name, func(t *testing.T) {
						for _, p := range programs {
							if r.forkJoin && !p.forkJoin {
								continue
							}
							checkCell(t, cfg, p)
						}
					})
				}
			}
		}
	}
}

// checkCell runs p under cfg twice — plain, and with the recorder tapped
// in — and replays the capture both ways; all four verdicts must be the
// oracle's.
func checkCell(t *testing.T, cfg engine.Config, p *program) {
	t.Helper()
	check := func(path string, got []uint64) {
		t.Helper()
		if !slices.Equal(got, p.want) {
			t.Errorf("%s, %s: racy %v, oracle %v", p.name, path, got, p.want)
		}
	}
	res, err := engine.Run(cfg, p.main())
	if err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	check("online", res.RacyAddrs)

	var buf bytes.Buffer
	cfg.Record = &buf
	if res, err = engine.Run(cfg, p.main()); err != nil {
		t.Fatalf("%s: recording: %v", p.name, err)
	}
	check("online, recording", res.RacyAddrs)

	ropts := replay.Options{Workers: 2, Reach: cfg.Reach}
	c, err := trace.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%s: load: %v", p.name, err)
	}
	rr, err := replay.Run(c, ropts)
	if err != nil {
		t.Fatalf("%s: replay: %v", p.name, err)
	}
	check("replay", rr.RacyAddrs)
	if rr, err = replay.RunStream(bytes.NewReader(buf.Bytes()), ropts); err != nil {
		t.Fatalf("%s: streamed replay: %v", p.name, err)
	}
	check("streamed replay", rr.RacyAddrs)
}

// TestRejectedConfigs: configuration errors come back before anything
// runs, with no Result.
func TestRejectedConfigs(t *testing.T) {
	ran := false
	main := func(*sched.Task) { ran = true }
	for _, cfg := range []engine.Config{
		{Detector: engine.FOrder, Policy: detect.ReadersLR},
		{Detector: engine.MultiBags, Policy: detect.ReadersLR, ReachabilityOnly: true},
		{Detector: engine.Detector(17)},
		{Detector: engine.Detector(-1)},
	} {
		res, err := engine.Run(cfg, main)
		if err == nil || res != nil {
			t.Errorf("%+v: got (%v, %v), want a nil Result and an error", cfg, res, err)
		}
	}
	if ran {
		t.Error("a rejected configuration ran the program")
	}
	// The detectors with a left-of order accept ReadersLR.
	for _, det := range []engine.Detector{engine.SFOrder, engine.WSPOrder} {
		if _, err := engine.Run(engine.Config{Detector: det, Policy: detect.ReadersLR, Serial: true}, main); err != nil {
			t.Errorf("%v with ReadersLR: %v", det, err)
		}
	}
}

func TestDetectorStrings(t *testing.T) {
	for d, want := range map[engine.Detector]string{
		engine.SFOrder: "SF-Order", engine.FOrder: "F-Order", engine.MultiBags: "MultiBags",
		engine.WSPOrder: "WSP-Order", engine.NoDetector: "none", engine.Detector(9): "Detector(9)",
	} {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), want)
		}
	}
}

// TestPanickingMainKeepsItsRaces: a program that races and then panics on
// a 4-worker engine returns the error together with a Result holding the
// race, under every detector that runs in parallel (MultiBags runs on the
// serial executor, where a panic propagates to the caller), and no worker
// goroutine outlives the run.
func TestPanickingMainKeepsItsRaces(t *testing.T) {
	main := func(t *sched.Task) {
		t.Spawn(func(c *sched.Task) { c.Write(3) })
		t.Write(3)
		t.Sync() // both writes are in the history past this point
		t.Spawn(func(*sched.Task) { panic("kaboom") })
		t.Sync()
	}
	before := runtime.NumGoroutine()
	for _, cfg := range []engine.Config{
		{Detector: engine.SFOrder},
		{Detector: engine.SFOrder, Reach: core.SubstrateDePa},
		{Detector: engine.SFOrder, Reach: core.SubstrateHybrid, LockedHistory: true},
		{Detector: engine.FOrder},
		{Detector: engine.WSPOrder, Policy: detect.ReadersLR},
	} {
		cfg.Workers = 4
		res, err := engine.Run(cfg, main)
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("%v/%v: error %v, want the propagated panic", cfg.Detector, cfg.Reach, err)
		}
		if res == nil {
			t.Fatalf("%v/%v: no Result beside the error", cfg.Detector, cfg.Reach)
		}
		if res.RaceCount == 0 || !slices.Equal(res.RacyAddrs, []uint64{3}) || len(res.Races) == 0 {
			t.Errorf("%v/%v: partial result lost the race on 3: count %d, racy %v",
				cfg.Detector, cfg.Reach, res.RaceCount, res.RacyAddrs)
		}
		if res.Counts.Strands == 0 {
			t.Errorf("%v/%v: partial result has no counts", cfg.Detector, cfg.Reach)
		}
	}
	// A worker's deferred Done runs an instant before its goroutine is
	// gone, so allow the count a moment to settle.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the runs, %d after: workers leaked", before, after)
	}
}
