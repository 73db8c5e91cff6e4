package engine_test

import (
	"bytes"
	"fmt"
	"maps"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sforder/internal/core"
	"sforder/internal/dag"
	"sforder/internal/detect"
	"sforder/internal/engine"
	"sforder/internal/obsv"
	"sforder/internal/oracle"
	"sforder/internal/progen"
	"sforder/internal/replay"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// program is one input of the lattice: main builds a fresh body per run,
// ranges, if set, the same program with its runs of addresses made as
// range calls (Task.ReadRange/WriteRange), want is the dag oracle's
// racy-address set, and reads, writes and repeats are the oracle log's
// access counts (oracle.Logger.Counts), the same for both spellings.
type program struct {
	name     string
	forkJoin bool // no futures: the only programs WSP-Order accepts
	main     func() func(*sched.Task)
	ranges   func() func(*sched.Task)
	want     []uint64

	reads, writes, repeats int
}

// rows is a fork-join program of row accesses: four children each write a
// 300-address row, 200 apart, so neighbours overlap by 100 addresses, and
// read the 50 addresses after their row, which the next child writes; the
// rows straddle shadow pages. With ranges set every row is one range call.
func rows(ranges bool) func(*sched.Task) {
	access := func(t *sched.Task, lo uint64, n int, write bool) {
		switch {
		case ranges && write:
			t.WriteRange(lo, n)
		case ranges:
			t.ReadRange(lo, n)
		default:
			for a := lo; a < lo+uint64(n); a++ {
				if write {
					t.Write(a)
				} else {
					t.Read(a)
				}
			}
		}
	}
	return func(t *sched.Task) {
		for i := uint64(0); i < 4; i++ {
			t.Spawn(func(c *sched.Task) {
				access(c, 200*i, 300, true)
				access(c, 200*i+300, 50, false)
			})
		}
		t.Sync()
		access(t, 0, 1200, false) // ordered after every child
		access(t, 0, 1200, true)
	}
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
		{name: "rows", forkJoin: true, main: func() func(*sched.Task) { return rows(false) },
			ranges: func() func(*sched.Task) { return rows(true) }},
	}
}

// corpus is the one set of programs every cell runs: generated
// structured-future programs (single accesses over a few addresses, and
// runs straddling shadow pages) plus the fork-join programs, each with
// its oracle verdict, and the programs with runs with their range
// spelling.
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
		p := &program{name: fmt.Sprintf("progen-%d", pc.Seed), main: pg.Main}
		if pc.MaxRun > 1 {
			p.ranges = pg.MainRanges
		}
		ps = append(ps, p)
	}
	ps = append(ps, forkJoinPrograms()...)
	for _, p := range ps {
		rec, log := dag.NewRecorder(), oracle.NewLogger()
		if _, err := sched.Run(sched.Options{Serial: true, Tracer: rec, Checker: log}, p.main()); err != nil {
			t.Fatalf("%s: oracle run: %v", p.name, err)
		}
		p.want = log.RacyAddrs(rec)
		p.reads, p.writes, p.repeats = log.Counts()
		if len(p.want) > 0 {
			racy++
		}
		if p.ranges == nil {
			continue
		}
		// The oracle takes no ranges: it sees the range spelling's accesses
		// one by one, and they must be main's.
		rec, log = dag.NewRecorder(), oracle.NewLogger()
		if _, err := sched.Run(sched.Options{Serial: true, Tracer: rec, Checker: log}, p.ranges()); err != nil {
			t.Fatalf("%s: oracle run of the ranges: %v", p.name, err)
		}
		reads, writes, repeats := log.Counts()
		if want := log.RacyAddrs(rec); !slices.Equal(want, p.want) || reads != p.reads || writes != p.writes || repeats != p.repeats {
			t.Fatalf("%s: the oracle's verdict on the ranges differs from main's", p.name)
		}
	}
	if racy < 3 || racy > len(ps)-3 {
		t.Fatalf("%d of %d corpus programs race: the lattice needs both kinds", racy, len(ps))
	}
	return ps
}

// interposed is a pass-through wrapper around the engine's checker: the
// engine sees Read, Write and StrandClose and nothing else of what it
// wraps, so every access takes the interface path.
type interposed struct {
	sched.AccessChecker
	sched.StrandCloser
}

// accessPath is how an access gets from Task.Read to the checker: tested
// inline against the strand's buffer first (what a plain run does when the
// checker allows it), always through the interface (a wrapper interposed),
// or through the counted path (a stats registry attached).
type accessPath struct {
	name string
	run  func(engine.Config, func(*sched.Task)) (*engine.Result, error)
}

var accessPaths = []accessPath{
	{"inline", engine.Run},
	{"interposed", func(cfg engine.Config, main func(*sched.Task)) (*engine.Result, error) {
		return engine.RunInterposed(cfg, main, func(c sched.AccessChecker) sched.AccessChecker {
			return interposed{c, c.(sched.StrandCloser)}
		})
	}},
	{"counting", func(cfg engine.Config, main func(*sched.Task)) (*engine.Result, error) {
		cfg.Stats = obsv.NewRegistry()
		return engine.Run(cfg, main)
	}},
}

// TestLatticeAgainstOracle is the standing conformance table: every legal
// cell of detector × substrate × executor × reader policy × history path ×
// access path runs the whole corpus, and its racy-address set must equal
// the dag oracle's — online, online while recording, and offline through
// replay of that recording, loaded and streamed. The paper's
// evaluation is differential (SF-Order, F-Order and MultiBags report the
// same races on structured futures), so the detectors are rows of one
// table. The access paths of one cell see the same accesses: the counting
// path's sched.reads, sched.writes and hist.fastpath_hits are the oracle
// log's counts, and under SF-Order on one worker, where a run is
// deterministic, the three agree on RaceCount and write the same capture
// byte for byte — with a buffered history on one worker, the bytes each
// spelling of the program writes with no history at all, recorded once
// under NoDetector and once under ReachabilityOnly. A program with runs
// also runs in its range spelling, on every path (the interposed one
// breaks the ranges up): a range is its single accesses, so the same
// counts and RaceCount, and a capture that decodes to the same (strand,
// address, kind) set — not the same bytes, since a range reaches the
// early-drain bound at a page, not an access.
// And every cell ends with as many goroutines as it started with: no
// worker, loader or shard outlives its run or replay.
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
	// undetected[p][si] are p's captures in spelling si, recorded once at
	// one worker with no access history: under NoDetector and under
	// ReachabilityOnly.
	undetected := map[*program][][2][]byte{}
	for _, p := range programs {
		for _, sp := range spellings(p) {
			var caps [2][]byte
			for i, cfg := range []engine.Config{{Detector: engine.NoDetector}, {ReachabilityOnly: true}} {
				var buf bytes.Buffer
				cfg.Workers, cfg.Record = 1, &buf
				if _, err := engine.Run(cfg, sp.main()); err != nil {
					t.Fatalf("%s, %s: recording without a history: %v", p.name, sp.name, err)
				}
				caps[i] = buf.Bytes()
			}
			undetected[p] = append(undetected[p], caps)
		}
	}

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
					paths := accessPaths
					if locked {
						paths = paths[:1] // no strand buffer, one path
					}
					deterministic := r.det == engine.SFOrder && ex.workers <= 1
					// One SF-Order worker with a buffered history drains the
					// strand buffers where a run without a history does.
					sameAsUndetected := r.det == engine.SFOrder && ex.workers == 1 && !locked
					name := fmt.Sprintf("%v-%v/%s/%v/locked=%v", r.det, r.reach, ex.name, policy, locked)
					t.Run(name, func(t *testing.T) {
						defer checkGoroutines(t, runtime.NumGoroutine(), "the cell's runs and replays")
						for _, p := range programs {
							if r.forkJoin && !p.forkJoin {
								continue
							}
							var first cell
							for si, sp := range spellings(p) {
								for i, path := range paths {
									c := checkCell(t, path, cfg, p, sp)
									if i == 0 && sameAsUndetected {
										for k, run := range []string{"NoDetector", "ReachabilityOnly"} {
											if u := undetected[p][si][k]; !bytes.Equal(c.capture, u) {
												t.Errorf("%s, %s: the %d-byte capture differs from %s's %d bytes",
													p.name, sp.name, len(c.capture), run, len(u))
											}
										}
									}
									switch {
									case si == 0 && i == 0:
										first = c
									case !deterministic:
									case c.races != first.races || si == 0 && !bytes.Equal(c.capture, first.capture):
										t.Errorf("%s, %s: %s path: RaceCount %v and a %d-byte capture, %s path: %v and %d bytes (equal: %v)",
											p.name, sp.name, path.name, c.races, len(c.capture), paths[0].name, first.races, len(first.capture),
											bytes.Equal(c.capture, first.capture))
									case !maps.Equal(c.accesses, first.accesses):
										t.Errorf("%s, %s: %s path: the capture holds %d accesses, the per-address spelling's %d, not the same set",
											p.name, sp.name, path.name, len(c.accesses), len(first.accesses))
									}
								}
							}
						}
					})
				}
			}
		}
	}
}

// spelling is one way of writing a program's accesses: its main.
type spelling struct {
	name string
	main func() func(*sched.Task)
}

// spellings returns p's per-address spelling, and its range spelling if
// it has one.
func spellings(p *program) []spelling {
	sps := []spelling{{"per-address", p.main}}
	if p.ranges != nil {
		sps = append(sps, spelling{"ranges", p.ranges})
	}
	return sps
}

// access is one decoded capture entry.
type access struct {
	strand, addr uint64
	kind         detect.AccessKind
}

// cell is what the access paths and spellings of one lattice cell are
// compared on: the RaceCount of the plain and of the recording run, the
// capture, and the set of accesses it decodes to.
type cell struct {
	races    [2]uint64
	capture  []byte
	accesses map[access]bool
}

// checkCell runs p, spelled sp, under cfg on one access path twice —
// plain, and with the recorder tapped in — and replays the capture both
// ways; all four verdicts, and the oracle's over the capture, must be the
// program's oracle's, and the counts of a run with stats the oracle log's.
func checkCell(t *testing.T, path accessPath, cfg engine.Config, p *program, sp spelling) cell {
	t.Helper()
	where := fmt.Sprintf("%s, %s, %s path", p.name, sp.name, path.name)
	check := func(run string, got []uint64) {
		t.Helper()
		if !slices.Equal(got, p.want) {
			t.Errorf("%s, %s: racy %v, oracle %v", where, run, got, p.want)
		}
	}
	checkCounts := func(run string, stats map[string]int64) {
		t.Helper()
		if stats == nil {
			return
		}
		for name, n := range map[string]int{"sched.reads": p.reads, "sched.writes": p.writes, "hist.fastpath_hits": p.repeats} {
			if stats[name] != int64(n) {
				t.Errorf("%s, %s: %s = %d, the oracle log says %d", where, run, name, stats[name], n)
			}
		}
	}
	var c cell
	res, err := path.run(cfg, sp.main())
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	check("online", res.RacyAddrs)
	checkCounts("online", res.Stats)
	c.races[0] = res.RaceCount

	var buf bytes.Buffer
	cfg.Record = &buf
	if res, err = path.run(cfg, sp.main()); err != nil {
		t.Fatalf("%s: recording: %v", where, err)
	}
	check("online, recording", res.RacyAddrs)
	checkCounts("online, recording", res.Stats)
	c.races[1], c.capture = res.RaceCount, buf.Bytes()

	ropts := replay.Options{Workers: 2, Reach: cfg.Reach}
	cp, err := trace.Load(bytes.NewReader(c.capture))
	if err != nil {
		t.Fatalf("%s: load: %v", where, err)
	}
	c.accesses = map[access]bool{}
	for _, b := range cp.Blocks {
		for kind, set := range [2]*detect.SlotSet{&b.Reads, &b.Writes} {
			for w, word := range set {
				for ; word != 0; word &= word - 1 {
					addr := b.Page<<detect.PageBits | uint64(w<<6|bits.TrailingZeros64(word))
					c.accesses[access{b.Strand, addr, detect.AccessKind(kind)}] = true
				}
			}
		}
	}
	racy, _, err := replay.Oracle(cp)
	if err != nil {
		t.Fatalf("%s: oracle over the capture: %v", where, err)
	}
	check("oracle over the capture", racy)
	rr, err := replay.Run(cp, ropts)
	if err != nil {
		t.Fatalf("%s: replay: %v", where, err)
	}
	check("replay", rr.RacyAddrs)
	if rr, err = replay.RunStream(bytes.NewReader(c.capture), ropts); err != nil {
		t.Fatalf("%s: streamed replay: %v", where, err)
	}
	check("streamed replay", rr.RacyAddrs)
	return c
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

// TestUnknownSubstrateRejected: a Reach that names no substrate — 2 was
// one (EXPERIMENTS ABL10/ABL11), and a caller may have stored it — is a
// configuration error at every entry point that assembles a core.Reach,
// not a silent run on the OM lists.
func TestUnknownSubstrateRejected(t *testing.T) {
	var capture bytes.Buffer
	if _, err := engine.Run(engine.Config{Serial: true, Record: &capture}, func(t *sched.Task) { t.Write(1) }); err != nil {
		t.Fatal(err)
	}
	c, err := trace.Load(bytes.NewReader(capture.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []core.Substrate{2, -1} {
		ran := false
		entries := map[string]func() (noResult bool, err error){
			"engine.Run": func() (bool, error) {
				res, err := engine.Run(engine.Config{Reach: bad, Serial: true}, func(*sched.Task) { ran = true })
				return res == nil, err
			},
			"replay.Run": func() (bool, error) {
				res, err := replay.Run(c, replay.Options{Reach: bad})
				return res == nil, err
			},
			"replay.RunStream": func() (bool, error) {
				res, err := replay.RunStream(bytes.NewReader(capture.Bytes()), replay.Options{Reach: bad})
				return res == nil, err
			},
		}
		for name, run := range entries {
			noResult, err := run()
			if err == nil || !strings.Contains(err.Error(), "want om or depa") {
				t.Errorf("%s with Reach %v: error %v, want the om/depa message", name, bad, err)
			}
			if !noResult {
				t.Errorf("%s with Reach %v returned a Result beside the error", name, bad)
			}
		}
		if ran {
			t.Errorf("Reach %v ran the program", bad)
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

// TestParseDetector: the three detectors the command-line tools name, and
// an error that lists them for anything else.
func TestParseDetector(t *testing.T) {
	for _, c := range []struct {
		in   string
		want engine.Detector
		err  bool
	}{
		{"sforder", engine.SFOrder, false},
		{"forder", engine.FOrder, false},
		{"multibags", engine.MultiBags, false},
		{"", engine.SFOrder, true},
		{"SF-Order", engine.SFOrder, true},
		{"wsporder", engine.SFOrder, true},
	} {
		got, err := engine.ParseDetector(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseDetector(%q) = (%v, %v), want (%v, err=%v)", c.in, got, err, c.want, c.err)
		}
		if err != nil && !strings.Contains(err.Error(), "want sforder, forder or multibags") {
			t.Errorf("ParseDetector(%q): error %q does not list the names", c.in, err)
		}
	}
}

// failAfter is a writer that fails every write past its first n bytes.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n < len(p) {
		return 0, fmt.Errorf("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestTraceIsClosedByRun: the engine wraps Config.Trace and finalizes the
// JSON before Run returns, and a write error is Run's error.
func TestTraceIsClosedByRun(t *testing.T) {
	main := func(t *sched.Task) {
		t.Spawn(func(c *sched.Task) { c.Write(1) })
		t.Sync()
	}
	var buf bytes.Buffer
	if _, err := engine.Run(engine.Config{Serial: true, Trace: &buf}, main); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "{\"traceEvents\": [") || !strings.HasSuffix(buf.String(), "]}\n") {
		t.Errorf("trace not finalized: %q", buf.String())
	}
	_, err := engine.Run(engine.Config{Serial: true, Trace: &failAfter{n: 32}}, main)
	if err == nil || !strings.Contains(err.Error(), "trace: disk full") {
		t.Errorf("a failing trace writer: error %v, want the trace's write error", err)
	}
}

// TestPanickingMainKeepsItsRaces: a program that races and then panics on
// a 4-worker engine returns the error together with a Result holding the
// race, under every detector that runs in parallel (MultiBags runs on the
// serial executor, where a panic propagates to the caller), no worker
// goroutine outlives the run, and no strand — the one that panicked with
// accesses buffered, its sibling, the parent blocked in the sync — is left
// holding a buffer that went back to the pool.
func TestPanickingMainKeepsItsRaces(t *testing.T) {
	var mu sync.Mutex
	var strands []*sched.Strand
	write := func(t *sched.Task, addr uint64) {
		t.Write(addr)
		mu.Lock()
		strands = append(strands, t.Strand())
		mu.Unlock()
	}
	main := func(t *sched.Task) {
		t.Spawn(func(c *sched.Task) { write(c, 3) })
		write(t, 3)
		t.Sync() // both writes are in the history past this point
		t.Spawn(func(c *sched.Task) { write(c, 6) })
		t.Spawn(func(c *sched.Task) { write(c, 5); panic("kaboom") })
		write(t, 7)
		t.Sync()
	}
	before := runtime.NumGoroutine()
	for _, cfg := range []engine.Config{
		{Detector: engine.SFOrder},
		{Detector: engine.SFOrder, Reach: core.SubstrateDePa, LockedHistory: true},
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
		for _, s := range strands {
			if s.Buf != nil {
				t.Errorf("%v/%v: strand %v still holds its buffer after the abort", cfg.Detector, cfg.Reach, s)
			}
		}
		strands = strands[:0]
	}
	checkGoroutines(t, before, "the runs")
}

// checkGoroutines fails t unless the goroutine count is back at before
// within two seconds. A worker's deferred Done runs an instant before its
// goroutine is gone, so the count is given a moment to settle.
func checkGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before %s, %d after: goroutines leaked", before, what, after)
	}
}
