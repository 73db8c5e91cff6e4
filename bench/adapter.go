package main

// adapter.go is the only file of the benchmark that names the
// repository's packages, constructors and configuration fields: the
// workload inputs, the engine assembly in the shipping configuration,
// the replay calls, and the timing wrappers the traced run interposes
// at the packages' public interfaces. When a knob or constructor in the
// repository changes, the follow-up benchmark change is this file.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"sforder/internal/core"
	"sforder/internal/dag"
	"sforder/internal/depa"
	"sforder/internal/detect"
	"sforder/internal/harness"
	"sforder/internal/obsv"
	"sforder/internal/oracle"
	"sforder/internal/progen"
	"sforder/internal/replay"
	"sforder/internal/sched"
	"sforder/internal/trace"
	"sforder/internal/workload"
)

// shippingConfig is what a user gets from cmd/sforder without flags.
type shippingConfig struct {
	sched  sched.Options
	reach  core.Config
	hist   detect.Options
	replay replay.Options
}

// shipping mirrors the flag defaults in cmd/sforder/main.go: -detector
// sforder, -reach om, -fastpath=true, -policy all, and -dedup,
// -omglobal, -noarena, -lockdeque all off; the shadow backend is the
// zero value of harness.Config.Backend (sharded map) because the CLI
// never sets it. -replay runs replay.Options defaults: -replayworkers 0
// (GOMAXPROCS shards), -rebuildworkers 0 (serial rebuild), OM substrate.
func shipping() shippingConfig {
	return shippingConfig{
		sched:  sched.Options{},
		reach:  core.Config{Reach: core.SubstrateOM},
		hist:   detect.Options{Policy: detect.ReadersAll, Backend: detect.BackendShardedMap, FastPath: true},
		replay: replay.Options{},
	}
}

// program is one input of a workload.
type program struct {
	name  string
	group int // row of the per-program breakdown it is reported under
	bench *workload.Benchmark
	// want is the racy-address set every detection of this program must
	// report: nil for the race-free paper workloads, the dag oracle's
	// verdict for generated programs.
	want    []uint64
	capture []byte // sftrace capture recorded in set-up
	// Static facts of the capture, filled by record.
	capEntries, capEvents, capBytes int64
}

// workloadDef is one benchmark workload: its inputs and why it exists.
type workloadDef struct {
	name, why string
	groups    []string // breakdown rows
	// gcStride is how many program runs share one runtime.GC(): 1 for
	// the paper-sized inputs, more for the sub-millisecond generated
	// programs where a collection per run would be most of the pass.
	gcStride int
	// passes is the end-to-end run's pass count at -seconds runSeconds:
	// fixed, the same on every commit, sized so that the timed phase takes
	// about that long on the 2-vCPU reference box.
	passes int
	build  func(seed int64, small bool) ([]*program, error)
}

func fixedPrograms(full, small []*workload.Benchmark) func(int64, bool) ([]*program, error) {
	return func(_ int64, useSmall bool) ([]*program, error) {
		bs := full
		if useSmall {
			bs = small
		}
		ps := make([]*program, len(bs))
		for i, b := range bs {
			ps[i] = &program{name: b.Name, group: i, bench: b}
		}
		return ps, nil
	}
}

// racyPrograms generates n random structured-future programs from seed
// and fixes each one's verdict with the exhaustive dag oracle.
func racyPrograms(seed int64, small bool) ([]*program, error) {
	n := 256
	if small {
		n = 8
	}
	ps := make([]*program, n)
	for i := range ps {
		pg := progen.New(progen.Config{Seed: seed + int64(i), MaxDepth: 6, MaxOps: 8, Addrs: 32})
		rec, log := dag.NewRecorder(), oracle.NewLogger()
		if _, err := sched.Run(sched.Options{Serial: true, Tracer: rec, Checker: log}, pg.Main()); err != nil {
			return nil, fmt.Errorf("oracle run of progen seed %d: %w", seed+int64(i), err)
		}
		ps[i] = &program{
			name: fmt.Sprintf("progen-%d", seed+int64(i)),
			want: log.RacyAddrs(rec),
			bench: &workload.Benchmark{Name: "progen", Make: func() *workload.Run {
				return &workload.Run{Main: pg.Main(), Verify: func() error { return nil }}
			}},
		}
	}
	return ps, nil
}

// workloads are the benchmark's four workloads; the names are fixed.
// The smaller inputs are workload.ScaleTest-sized, for the smoke test.
var workloads = []*workloadDef{
	{
		name:   "read-dense",
		why:    "reads outnumber writes 15:1 over a dense address range in ~2k strands, so detect's state-word fast path is nearly all of full-base and replay is shard apply",
		groups: []string{"mm", "sw"}, gcStride: 1, passes: 40,
		build: fixedPrograms(
			[]*workload.Benchmark{workload.MM(128, 16), workload.SW(512, 32)},
			[]*workload.Benchmark{workload.MM(32, 8), workload.SW(64, 16)}),
	},
	{
		name:   "write-mixed",
		why:    "1.7M writes against 6.5M reads: detect's write side (batched flush, shard locks, ksweep's long reader lists) carries full-base, so a read-side gain that costs writers shows here",
		groups: []string{"sort", "hw", "ferret", "ksweep"}, gcStride: 1, passes: 24,
		build: fixedPrograms(
			[]*workload.Benchmark{workload.Sort(100000, 2048), workload.HW(6, 32, 1024), workload.Ferret(64, 1024), workload.KSweep(1024, 4000)},
			[]*workload.Benchmark{workload.Sort(1000, 64), workload.HW(3, 8, 64), workload.Ferret(8, 64), workload.KSweep(12, 40)}),
	},
	{
		name:   "dag-futures",
		why:    "15k-60k strands and up to 20k futures with a few accesses each, so sched ops and core placement (OM inserts, gp/cp bitsets) outweigh detect, and replay is mostly rebuild",
		groups: []string{"spine", "chain", "pipeline"}, gcStride: 1, passes: 34,
		build: fixedPrograms(
			[]*workload.Benchmark{workload.Spine(5000, 2), workload.Chain(20000, 2), workload.Pipeline(1000, 16, 8)},
			[]*workload.Benchmark{workload.Spine(60, 2), workload.Chain(200, 2), workload.Pipeline(12, 4, 2)}),
	},
	{
		name:   "racy-small",
		why:    "256 generated programs with races, one engine run each, so per-run fixed cost and the report path dominate; verdicts are checked against the dag oracle",
		groups: []string{"progen"}, gcStride: 32, passes: 58,
		build: racyPrograms,
	},
}

// record captures the program once under full online detection, the
// canonical replay input (harness.RecordCapture), and notes its size.
func (p *program) record() error {
	buf, err := harness.RecordCapture(p.bench, 1)
	if err != nil {
		return err
	}
	c, err := trace.Load(bytes.NewReader(buf))
	if err != nil {
		return fmt.Errorf("%s: load own capture: %w", p.name, err)
	}
	p.capture = buf
	p.capEntries, p.capEvents, p.capBytes = int64(c.Entries), int64(len(c.Events)), c.Bytes
	return nil
}

type mode int

const (
	modeBase  mode = iota // no tracer, no checker
	modeReach             // reachability maintained, no accesses checked
	modeFull              // full race detection
)

// onlineSpec is one online cell.
type onlineSpec struct {
	mode    mode
	workers int
	record  bool    // attach an sftrace recorder (written to io.Discard)
	depa    bool    // core.SubstrateDePa in place of the shipping substrate
	stats   bool    // register the history on an obsv registry (turns its hit and lock counters on)
	tr      *tracer // interpose the timing wrappers; needs workers == 1
	// With the wrappers installed: count the calls into detect, or into
	// detect and core, but do not make them. The wall such a run saves is
	// the layer's busy time. Detection cannot run without its Precedes
	// answers, so that nested boundary is differenced the other way: every
	// query made twice, and the wall the run gains is the queries' busy time.
	skipDetect, skipCore, doublePrecedes bool
}

type onlineResult struct {
	wall                     time.Duration
	strands, futures, steals uint64
	races                    uint64
	racy                     []uint64
	reachMem, histMem        int
	recEntries               int64
	fastHits, lockAcquires   int64
}

// runOnline assembles one engine the way harness.Run does for SF-Order
// and executes the program once. With spec.tr set, every call from
// sched into core, detect and trace, and from detect into core and
// trace, goes through a timing wrapper.
func (p *program) runOnline(spec onlineSpec) (onlineResult, error) {
	var res onlineResult
	tr := spec.tr
	if tr != nil && spec.workers != 1 {
		// The access wrappers cannot tell which worker calls them.
		return res, errors.New("bench: the traced online cell runs one worker")
	}
	if spec.skipCore && !spec.skipDetect {
		return res, errors.New("bench: detection needs the placements it queries")
	}
	cfg := shipping()
	run := p.bench.Make()
	opts := cfg.sched
	opts.Workers = spec.workers

	var reach *core.Reach
	var reachQ detect.Reachability
	if spec.mode != modeBase {
		rc := cfg.reach
		if spec.depa {
			rc.Reach = core.SubstrateDePa
		}
		reach = core.New(rc)
		defer reach.Release()
		opts.Tracer, reachQ = reach, reach
		if tr != nil {
			w := &tracedReach{Reach: reach, tr: tr, skip: spec.skipCore, double: spec.doublePrecedes}
			opts.Tracer, reachQ = w, w
		}
	}
	var rec *trace.Recorder
	var recStats *obsv.Registry
	if spec.record {
		rec = trace.NewRecorder(io.Discard)
		recStats = obsv.NewRegistry()
		rec.RegisterStats(recStats)
		opts.Aux = rec
	}
	var hist *detect.History
	var histStats *obsv.Registry
	switch {
	case spec.mode == modeFull:
		ho := cfg.hist
		ho.Reach = reachQ
		if rec != nil {
			ho.Tap = rec
			if tr != nil {
				ho.Tap = &tracedTap{inner: rec, l: tr.lanes[0]}
			}
		}
		hist = detect.NewHistory(ho)
		if spec.stats {
			histStats = obsv.NewRegistry()
			hist.RegisterStats(histStats)
		}
		opts.Checker = hist
		if tr != nil {
			opts.Checker = &tracedHistory{hist: hist, l: tr.lanes[0], skip: spec.skipDetect}
		}
	case rec != nil:
		// Base and reach modes have no history to tap; the recorder is
		// the access checker itself.
		opts.Checker = rec
		if tr != nil {
			opts.Checker = &tracedRecorder{rec: rec, l: tr.lanes[0]}
		}
	}

	if tr != nil {
		tr.begin()
	}
	start := time.Now()
	counts, err := sched.Run(opts, run.Main)
	res.wall = time.Since(start)
	if tr != nil {
		tr.finish()
	}
	if rec != nil {
		if cerr := rec.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("record: %w", cerr)
		}
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w", p.name, err)
	}
	if err := run.Verify(); err != nil {
		return res, fmt.Errorf("%s: verification: %w", p.name, err)
	}
	res.strands, res.futures, res.steals = counts.Strands, counts.Futures, counts.Steals
	if reach != nil {
		res.reachMem = reach.MemBytes()
	}
	if hist != nil {
		res.races, res.racy, res.histMem = hist.RaceCount(), hist.RacyAddrs(), hist.MemBytes()
	}
	if recStats != nil {
		res.recEntries = recStats.Snapshot()["record.access_entries"]
	}
	if histStats != nil {
		s := histStats.Snapshot()
		res.fastHits, res.lockAcquires = s["hist.fastpath_hits"], s["hist.lock_acquires"]
	}
	return res, nil
}

// runFixed times one sched.Run of an empty main at the given worker
// count: the per-run cost of starting and parking the workers.
func runFixed(workers int) (time.Duration, error) {
	start := time.Now()
	_, err := sched.Run(sched.Options{Workers: workers}, func(*sched.Task) {})
	return time.Since(start), err
}

// tracedReach wraps *core.Reach as the engine's lane tracer and as the
// history's reachability: placements and queries are timed, the events
// that do no placement work (root, return, put) pass straight through
// the embedded methods. With skip set the placements are counted and
// sampled but not made — the run the core layer's busy time is measured
// against; nothing may query the reachability then. With double set each
// query is made twice (Precedes has no effect but its answer).
type tracedReach struct {
	*core.Reach
	tr           *tracer
	skip, double bool
}

func (r *tracedReach) SetLanes(n int) {
	r.tr.setLanes(n)
	r.Reach.SetLanes(n)
}

func (r *tracedReach) OnRoot(root *sched.Strand) {
	if !r.skip {
		r.Reach.OnRoot(root)
	}
}

func (r *tracedReach) OnSpawnLane(lane int, u, child, cont, placeholder *sched.Strand) {
	l := r.tr.lanes[lane]
	timed := l.enter(bPlace)
	if !r.skip {
		r.Reach.OnSpawnLane(lane, u, child, cont, placeholder)
	}
	if timed {
		l.exit()
	}
}

func (r *tracedReach) OnCreateLane(lane int, u, first, cont, placeholder *sched.Strand, f *sched.FutureTask) {
	l := r.tr.lanes[lane]
	timed := l.enter(bPlace)
	if !r.skip {
		r.Reach.OnCreateLane(lane, u, first, cont, placeholder, f)
	}
	if timed {
		l.exit()
	}
}

func (r *tracedReach) OnSyncLane(lane int, k, s *sched.Strand, childSinks []*sched.Strand) {
	l := r.tr.lanes[lane]
	timed := l.enter(bPlace)
	if !r.skip {
		r.Reach.OnSyncLane(lane, k, s, childSinks)
	}
	if timed {
		l.exit()
	}
}

func (r *tracedReach) OnGetLane(lane int, u, g *sched.Strand, f *sched.FutureTask) {
	l := r.tr.lanes[lane]
	timed := l.enter(bPlace)
	if !r.skip {
		r.Reach.OnGetLane(lane, u, g, f)
	}
	if timed {
		l.exit()
	}
}

func (r *tracedReach) Precedes(u, v *sched.Strand) bool {
	l := r.tr.lanes[0]
	timed := l.enterNested(bPrecedes)
	ok := r.Reach.Precedes(u, v)
	if r.double {
		ok = r.Reach.PrecedesUncounted(u, v)
	}
	if timed {
		l.exit()
	}
	return ok
}

var (
	_ sched.LaneTracer    = (*tracedReach)(nil)
	_ detect.Reachability = (*tracedReach)(nil)
)

// tracedRecorder wraps the recorder when it is the engine's access
// checker itself (recording without detection).
type tracedRecorder struct {
	rec *trace.Recorder
	l   *lane // the one worker's lane
}

func (r *tracedRecorder) Read(s *sched.Strand, addr uint64) {
	timed := r.l.enter(bRecord)
	r.rec.Read(s, addr)
	if timed {
		r.l.exit()
	}
}

func (r *tracedRecorder) Write(s *sched.Strand, addr uint64) {
	timed := r.l.enter(bRecord)
	r.rec.Write(s, addr)
	if timed {
		r.l.exit()
	}
}

func (r *tracedRecorder) StrandClose(s *sched.Strand) {
	timed := r.l.enter(bRecordClose)
	r.rec.StrandClose(s)
	if timed {
		r.l.exit()
	}
}

// tracedHistory wraps the history as the engine's access checker. It
// takes 6 M calls a run on the access-heavy workloads, so the wrapper
// costs what it must: an inlined countdown and a direct call. With skip
// set every call is still counted and sampled but not made — the run
// the detect layer's busy time is measured against.
type tracedHistory struct {
	hist *detect.History
	l    *lane
	skip bool
}

func (h *tracedHistory) Read(s *sched.Strand, addr uint64) {
	timed := h.l.enter(bRead)
	if !h.skip {
		h.hist.Read(s, addr)
	}
	if timed {
		h.l.exit()
	}
}

func (h *tracedHistory) Write(s *sched.Strand, addr uint64) {
	timed := h.l.enter(bWrite)
	if !h.skip {
		h.hist.Write(s, addr)
	}
	if timed {
		h.l.exit()
	}
}

func (h *tracedHistory) StrandClose(s *sched.Strand) {
	timed := h.l.enter(bClose)
	if !h.skip {
		h.hist.StrandClose(s)
	}
	if timed {
		h.l.exit()
	}
}

// tracedTap wraps the recorder as the history's access tap.
type tracedTap struct {
	inner detect.AccessTap
	l     *lane
}

func (t *tracedTap) TapAccesses(s *sched.Strand, addrs []uint64, kinds []detect.AccessKind) {
	timed := t.l.enterNested(bTap)
	t.inner.TapAccesses(s, addrs, kinds)
	if timed {
		t.l.exit()
	}
}

// replaySpec is one offline cell over the program's capture.
type replaySpec struct {
	stream bool    // replay.RunStream in place of trace.Load + replay.Run
	depa   bool    // rebuild on core.SubstrateDePa with P rebuild workers
	tr     *tracer // plain timers around the entry points
}

type replayResult struct {
	wall                   time.Duration // decode included
	racy                   []uint64
	rebuild, detect, merge time.Duration
	shards                 int
	maxShardEntries        uint64
	peakBlocks             int64
}

func (p *program) runReplay(spec replaySpec, workers int) (replayResult, error) {
	tr := spec.tr
	opts := shipping().replay
	if spec.depa {
		opts.Reach, opts.RebuildWorkers = core.SubstrateDePa, workers
	}
	var out *replay.Result
	if tr != nil {
		tr.begin()
	}
	start := time.Now()
	var err error
	if spec.stream {
		err = tr.timed(bReplayStream, func() (err error) {
			out, err = replay.RunStream(bytes.NewReader(p.capture), opts)
			return err
		})
	} else {
		var c *trace.Capture
		err = tr.timed(bLoad, func() (err error) {
			c, err = trace.Load(bytes.NewReader(p.capture))
			return err
		})
		if err == nil {
			err = tr.timed(bReplay, func() (err error) {
				out, err = replay.Run(c, opts)
				return err
			})
		}
	}
	wall := time.Since(start)
	if tr != nil {
		tr.finish()
	}
	if err != nil {
		return replayResult{}, fmt.Errorf("%s: replay: %w", p.name, err)
	}
	return replayResult{
		wall: wall, racy: out.RacyAddrs,
		rebuild: out.Rebuild, detect: out.Detect, merge: out.Merge,
		shards: out.Shards, maxShardEntries: out.MaxShardEntries, peakBlocks: out.StreamPeakBlocks,
	}, nil
}

// probeDecode times the decode-side entry points replay is built from,
// each alone: the streaming decoder, the segment index, and the label
// table the parallel rebuild path constructs from it.
func (p *program) probeDecode(tr *tracer, workers int) error {
	tr.begin()
	defer tr.finish()
	if err := tr.timed(bStream, func() error {
		st, err := trace.OpenStream(bytes.NewReader(p.capture))
		if err != nil {
			return err
		}
		for {
			if _, _, err := st.Next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	}); err != nil {
		return fmt.Errorf("%s: stream decode: %w", p.name, err)
	}
	c, err := trace.Load(bytes.NewReader(p.capture))
	if err != nil {
		return fmt.Errorf("%s: load: %w", p.name, err)
	}
	var idx *trace.PathIndex
	if err := tr.timed(bIndex, func() (err error) {
		idx, err = c.Index()
		return err
	}); err != nil {
		return fmt.Errorf("%s: index: %w", p.name, err)
	}
	// Branch roles to label components, as replay's table rebuild maps
	// them.
	comp := make([]uint8, len(idx.Role))
	for i, role := range idx.Role {
		switch role {
		case trace.RoleChild, trace.RoleGet:
			comp[i] = depa.Child
		case trace.RoleCont:
			comp[i] = depa.Cont
		case trace.RoleSync:
			comp[i] = depa.Sync
		}
	}
	if err := tr.timed(bBuildTable, func() error {
		_, err := depa.BuildTable(idx.Parent, comp, depa.TableConfig{Workers: workers})
		return err
	}); err != nil {
		return fmt.Errorf("%s: build table: %w", p.name, err)
	}
	return nil
}
