package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// cell is one measured configuration of one program.
type cell int

const (
	// Shipping configuration, no wrapper installed.
	cBaseT1       cell = iota // uninstrumented, 1 worker
	cBaseTP                   // uninstrumented, P workers
	cReachT1                  // reachability only, 1 worker
	cFullT1                   // full detection, 1 worker
	cFullTP                   // full detection, P workers
	cRecordTP                 // uninstrumented + recorder, P workers
	cReplay                   // trace.Load + replay.Run, P shards
	cReplayStream             // replay.RunStream, P shards
	// Traced-run cells, every pass.
	cTrFull       // cFullT1 behind the timing wrappers
	cTrNoDetect   // cTrFull with the calls into detect counted but not made
	cTrNoCore     // cTrNoDetect with the calls into core not made either
	cTrPrecedes2x // cTrFull with every Precedes query made twice
	cTrDecode     // stream decode, index and label table, each alone
	cTrReplayDepa // cReplay on DePa labels with P rebuild workers
	// Traced-run cells, first pass only.
	cTrDepa    // cTrFull on the DePa substrate
	cTrRecord  // uninstrumented + recorder, 1 worker, behind the wrappers (span file only)
	cTrCapture // full detection + recorder behind the wrappers (the tap boundary; span file only)
	cStats     // cFullT1 with the history's obsv counters on
	nCells
)

var cellName = [nCells]string{
	"base_t1", "base_tp", "reach_t1", "full_t1", "full_tp", "record_tp", "replay", "replay_stream",
	"traced_full_t1", "traced_no_detect_t1", "traced_no_core_t1", "traced_precedes_2x_t1", "traced_decode",
	"traced_replay_depa", "traced_full_t1_depa", "traced_record_t1", "traced_capture_t1", "stats_full_t1",
}

var (
	// The end-to-end run times the cells its metrics are made of; the two
	// replay cells run in its warm-up pass only, for the correctness gate
	// (their times are per-layer metrics, from the traced run).
	e2eCells       = []cell{cBaseT1, cBaseTP, cReachT1, cFullT1, cFullTP, cRecordTP}
	e2eWarmupCells = []cell{cReplay, cReplayStream}
	tracedCells    = []cell{cBaseT1, cBaseTP, cFullT1, cFullTP, cRecordTP, cReplay, cReplayStream,
		cTrFull, cTrNoDetect, cTrNoCore, cTrPrecedes2x, cTrDecode, cTrReplayDepa}
	firstPassCells = []cell{cTrDepa, cTrRecord, cTrCapture, cStats}
)

// scope separates the boundary accumulators of traced cells that cross
// the same boundaries in different configurations.
type scope int

const (
	scFull    scope = iota // counts and latency percentiles of the shipping configuration
	scDepa                 // the .depa percentiles
	scOffline              // the decode and replay entry points
	scUnread               // differencing and span-file cells: only their wall or spans are used
	nScopes
)

// In the traced run the replay cells run under plain timers around
// their entry points; nothing is interposed, so they are the same cells.
var scopeOf = map[cell]scope{
	cTrFull: scFull, cTrDepa: scDepa,
	cReplay: scOffline, cReplayStream: scOffline, cTrDecode: scOffline,
	cTrNoDetect: scUnread, cTrNoCore: scUnread, cTrPrecedes2x: scUnread,
	cTrRecord: scUnread, cTrCapture: scUnread, cTrReplayDepa: scUnread,
}

// bucket sums what one pass measured over a set of programs.
type bucket struct {
	ms    [nCells]float64 // wall per cell
	scope [nScopes]layerStats

	strands, futures, races uint64 // cFullT1
	steals                  uint64 // cFullTP
	reachMem, histMem       int64  // after cFullT1
	recEntries              int64  // cRecordTP

	statsRuns              int // cStats runs summed below
	fastHits, lockAcquires int64

	// cReplay (and cTrReplayDepa for rebuildDepaMs), with the static size
	// of the captures replayed.
	capEntries, capEvents, capBytes int64
	rebuildMs, detectMs, mergeMs    float64
	rebuildDepaMs                   float64
	shardLoad                       float64 // Σ MaxShardEntries·Shards
	peakBlocks                      int64   // cReplayStream, max
}

func (b *bucket) add(o *bucket) {
	for c := range b.ms {
		b.ms[c] += o.ms[c]
	}
	for s := range b.scope {
		b.scope[s].add(&o.scope[s])
	}
	b.strands += o.strands
	b.futures += o.futures
	b.races += o.races
	b.steals += o.steals
	b.reachMem += o.reachMem
	b.histMem += o.histMem
	b.recEntries += o.recEntries
	b.statsRuns += o.statsRuns
	b.fastHits += o.fastHits
	b.lockAcquires += o.lockAcquires
	b.capEntries += o.capEntries
	b.capEvents += o.capEvents
	b.capBytes += o.capBytes
	b.rebuildMs += o.rebuildMs
	b.detectMs += o.detectMs
	b.mergeMs += o.mergeMs
	b.rebuildDepaMs += o.rebuildDepaMs
	b.shardLoad += o.shardLoad
	b.peakBlocks = max(b.peakBlocks, o.peakBlocks)
}

// measurement is one workload measured in one mode: set-up, then passes.
type measurement struct {
	def    *workloadDef
	opts   options
	traced bool
	sink   *spanSink

	progs     []*program
	setupS    float64
	passes    int
	attempted int
	failed    int
	// samples[program][cell] holds the cell's wall in ms, one per pass.
	samples [][nCells][]float64
	// buckets[pass][group] holds the pass's sums per breakdown row.
	buckets    [][]bucket
	runFixedUs float64
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (m *measurement) fail(p *program, c cell, format string, args ...any) {
	m.failed++
	if m.failed <= 10 {
		fmt.Fprintf(os.Stderr, "FAIL %s %s %s: %s\n", m.def.name, p.name, cellName[c], fmt.Sprintf(format, args...))
	}
}

// runCell runs cell c of program p once, checks its outputs, adds what
// it measured to b, and returns the wall time in ms.
func (m *measurement) runCell(c cell, p *program, b *bucket, keepSpans bool) float64 {
	m.attempted++
	var tr *tracer
	if sc, ok := scopeOf[c]; ok && m.traced {
		// The differencing cells keep no spans: theirs time calls that
		// were not made, or were made twice.
		differencing := c == cTrNoDetect || c == cTrNoCore || c == cTrPrecedes2x
		tr = newTracer(cellName[c], p.name, keepSpans && !differencing)
		defer func() {
			b.scope[sc].add(tr.stats())
			m.sink.take(tr)
		}()
	}
	var wall time.Duration
	switch c {
	case cReplay, cReplayStream, cTrReplayDepa:
		r, err := p.runReplay(replaySpec{
			stream: c == cReplayStream,
			depa:   c == cTrReplayDepa,
			tr:     tr,
		}, m.opts.workers)
		if err != nil {
			m.fail(p, c, "%v", err)
			return math.NaN()
		}
		if !slices.Equal(r.racy, p.want) {
			m.fail(p, c, "replay reports races on %d addresses, online detection and the oracle on %d", len(r.racy), len(p.want))
		}
		wall = r.wall
		switch c {
		case cReplay:
			b.capEntries += p.capEntries
			b.capEvents += p.capEvents
			b.capBytes += p.capBytes
			b.rebuildMs += ms(r.rebuild)
			b.detectMs += ms(r.detect)
			b.mergeMs += ms(r.merge)
			b.shardLoad += float64(r.maxShardEntries) * float64(r.shards)
		case cTrReplayDepa:
			b.rebuildDepaMs += ms(r.rebuild)
		case cReplayStream:
			b.peakBlocks = max(b.peakBlocks, r.peakBlocks)
		}
	case cTrDecode:
		start := time.Now()
		if err := p.probeDecode(tr, m.opts.workers); err != nil {
			m.fail(p, c, "%v", err)
			return math.NaN()
		}
		wall = time.Since(start)
	default:
		spec := onlineSpec{workers: 1, tr: tr}
		switch c {
		case cBaseTP, cFullTP, cRecordTP:
			spec.workers = m.opts.workers
		}
		switch c {
		case cReachT1:
			spec.mode = modeReach
		case cFullT1, cFullTP, cTrFull, cTrNoDetect, cTrNoCore, cTrPrecedes2x, cTrDepa, cTrCapture, cStats:
			spec.mode = modeFull
		}
		spec.skipDetect = c == cTrNoDetect || c == cTrNoCore
		spec.skipCore = c == cTrNoCore
		spec.doublePrecedes = c == cTrPrecedes2x
		spec.record = c == cRecordTP || c == cTrRecord || c == cTrCapture
		spec.depa = c == cTrDepa
		spec.stats = c == cStats
		r, err := p.runOnline(spec)
		if err != nil {
			m.fail(p, c, "%v", err)
			return math.NaN()
		}
		if spec.mode == modeFull && !spec.skipDetect && !slices.Equal(r.racy, p.want) {
			m.fail(p, c, "online detection reports races on %d addresses, want %d", len(r.racy), len(p.want))
		}
		wall = r.wall
		switch c {
		case cFullT1:
			b.strands += r.strands
			b.futures += r.futures
			b.races += r.races
			b.reachMem += int64(r.reachMem)
			b.histMem += int64(r.histMem)
		case cFullTP:
			b.steals += r.steals
		case cRecordTP:
			b.recEntries += r.recEntries
		case cStats:
			b.statsRuns++
			b.fastHits += r.fastHits
			b.lockAcquires += r.lockAcquires
		}
	}
	return ms(wall)
}

// runPass runs every cell for every program: cells interleaved, the
// order reversed on odd passes, a collection before each timed run
// (each gcStride-th for the tiny programs) outside the timer. With keep
// false the pass is the warm-up: checked, its samples dropped.
func (m *measurement) runPass(cells []cell, keep bool) {
	pass := m.passes
	groups := make([]bucket, len(m.def.groups))
	order := slices.Clone(cells)
	idx := make([]int, len(m.progs))
	for i := range idx {
		idx[i] = i
	}
	if pass%2 == 1 {
		slices.Reverse(order)
		slices.Reverse(idx)
	}
	keepSpans := m.sink != nil && m.traced && keep && pass == 0
	for _, c := range order {
		for n, i := range idx {
			if n%m.def.gcStride == 0 {
				runtime.GC()
			}
			p := m.progs[i]
			v := m.runCell(c, p, &groups[p.group], keepSpans)
			groups[p.group].ms[c] += v
			if keep {
				m.samples[i][c] = append(m.samples[i][c], v)
			}
		}
	}
	if keep {
		m.buckets = append(m.buckets, groups)
		m.passes++
	}
}

// setup builds the inputs (oracle verdicts included), records the
// captures and runs the discarded warm-up pass; setup_s is how long
// that took.
func (m *measurement) setup(cells []cell) error {
	start := time.Now()
	progs, err := m.def.build(m.opts.seed, m.opts.small)
	if err != nil {
		return err
	}
	for _, p := range progs {
		if err := p.record(); err != nil {
			return fmt.Errorf("record %s: %w", p.name, err)
		}
	}
	m.progs = progs
	m.samples = make([][nCells][]float64, len(progs))
	if !m.traced {
		cells = append(slices.Clone(cells), e2eWarmupCells...)
	}
	m.runPass(cells, false)
	m.setupS = time.Since(start).Seconds()
	return nil
}

// passCount is the fixed number of timed passes of a run: the
// workload's own count end to end, tracedPasses traced, both scaled by
// -seconds over runSeconds and rounded to an even number, so that as
// many passes run in one cell order as in the other.
func passCount(def *workloadDef, o options, traced bool) int {
	if o.passes > 0 {
		return o.passes
	}
	n := float64(def.passes)
	if traced {
		n = tracedPasses
	}
	return 2 * max(1, int(math.Round(n*o.seconds/runSeconds/2)))
}

// measure runs one workload in one mode: set-up, then a fixed number of
// passes.
func measure(def *workloadDef, o options, traced bool, sink *spanSink) (*measurement, error) {
	m := &measurement{def: def, opts: o, traced: traced, sink: sink}
	cells := e2eCells
	if traced {
		cells = tracedCells
	}
	if err := m.setup(cells); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	if traced {
		var fixed []float64
		for i := 0; i < 200; i++ {
			d, err := runFixed(o.workers)
			if err != nil {
				return nil, err
			}
			fixed = append(fixed, float64(d)/1e3)
		}
		m.runFixedUs = median(fixed)
	}
	for n := passCount(def, o, traced); m.passes < n; {
		pc := cells
		if traced && m.passes == 0 {
			pc = append(slices.Clone(cells), firstPassCells...)
		}
		m.runPass(pc, true)
		if err := sink.flush(); err != nil { // spans are kept from the first pass only
			return nil, err
		}
	}
	return m, nil
}

// ratio returns the geometric mean over programs of median(num) /
// median(den), medians over passes.
func (m *measurement) ratio(num, den cell) float64 {
	per := make([]float64, len(m.progs))
	for i := range m.progs {
		per[i] = median(m.samples[i][num]) / median(m.samples[i][den])
	}
	return geomean(per)
}

// metricDef declares one metric of the benchmark's contract.
type metricDef struct {
	name, unit string
	bound      float64 // share of the parent's median it may worsen by; end-to-end only
	higher     bool    // true when a higher value is better
}

// endToEndDefs are the end-to-end metrics, all lower-is-better. They
// are the ones that hold a bound of a tenth run to run on the 2-vCPU
// reference VM: the overhead ratios, which divide out the host's slow
// phases, and the memory, which does not move. The wall-clock metrics
// do not (their spread between the quartiles of ten runs is 5-15%), so
// they are per-layer metrics, reported without a bound. failed_share is
// always 0 on a correct build, so it is printed and gated by the exit
// code but is not one of BENCHMARK.json's bounded metrics.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "full_overhead_t1", unit: "x", bound: 0.10},
	{name: "full_overhead_tp", unit: "x", bound: 0.10},
	{name: "reach_overhead_t1", unit: "x", bound: 0.10},
	{name: "record_overhead_tp", unit: "x", bound: 0.10},
	{name: "detector_mem_mb", unit: "MB", bound: 0.02},
}

// metricValue is one reported metric.
type metricValue struct {
	Name  string `json:"name"`
	Unit  string `json:"unit"`
	Value num    `json:"value"`
	// End-to-end only: the bound, the value each run measured, and their
	// summary.
	Bound float64 `json:"bound,omitempty"`
	Runs  []num   `json:"runs,omitempty"`
	Dist  *dist   `json:"dist,omitempty"`
	// Per-layer only.
	PerProgram map[string]num `json:"per_program,omitempty"`
}

// endToEnd derives one run's end-to-end metrics from an untraced
// measurement.
func (m *measurement) endToEnd() map[string]float64 {
	mem := make([]float64, m.passes)
	for k, groups := range m.buckets {
		for g := range groups {
			mem[k] += float64(groups[g].reachMem+groups[g].histMem) / 1e6
		}
	}
	return map[string]float64{
		"setup_s":            m.setupS,
		"full_overhead_t1":   m.ratio(cFullT1, cBaseT1),
		"full_overhead_tp":   m.ratio(cFullTP, cBaseTP),
		"reach_overhead_t1":  m.ratio(cReachT1, cBaseT1),
		"record_overhead_tp": m.ratio(cRecordTP, cBaseTP),
		"detector_mem_mb":    median(mem),
	}
}

// perLayerDefs are the per-layer metrics, in the order of the README's
// table. Counts are denominators; "higher" marks the few where more is
// better.
var perLayerDefs = []metricDef{
	// The wall-clock metrics of the whole run, demoted from the end-to-end
	// list (see endToEndDefs).
	{name: "base_tp_ms", unit: "ms"},
	{name: "full_t1_ms", unit: "ms"},
	{name: "full_tp_ms", unit: "ms"},
	{name: "replay_ms", unit: "ms"},
	{name: "replay_stream_ms", unit: "ms"},
	{name: "sched.strands", unit: "count"},
	{name: "sched.futures", unit: "count"},
	{name: "sched.steals", unit: "count"},
	{name: "sched.base_ns_per_strand", unit: "ns"},
	{name: "sched.run_fixed_us", unit: "us"},
	{name: "sched.self_ms", unit: "ms"},
	{name: "core.events", unit: "count"},
	{name: "core.place_ns_p50", unit: "ns"},
	{name: "core.place_ns_p99", unit: "ns"},
	{name: "core.place_busy_ms", unit: "ms"},
	{name: "core.queries", unit: "count"},
	{name: "core.precedes_ns_p50", unit: "ns"},
	{name: "core.precedes_ns_p99", unit: "ns"},
	{name: "core.precedes_busy_ms", unit: "ms"},
	{name: "core.place_ns_p50.depa", unit: "ns"},
	{name: "core.precedes_ns_p50.depa", unit: "ns"},
	{name: "core.mem_mb", unit: "MB"},
	{name: "detect.reads", unit: "count"},
	{name: "detect.writes", unit: "count"},
	{name: "detect.read_ns_p50", unit: "ns"},
	{name: "detect.read_ns_p99", unit: "ns"},
	{name: "detect.write_ns_p50", unit: "ns"},
	{name: "detect.write_ns_p99", unit: "ns"},
	{name: "detect.close_ns_p50", unit: "ns"},
	{name: "detect.close_ns_p99", unit: "ns"},
	{name: "detect.busy_ms", unit: "ms"},
	{name: "detect.self_ms", unit: "ms"},
	{name: "detect.queries_per_access", unit: "ratio"},
	{name: "detect.fastpath_hit_share", unit: "ratio", higher: true},
	{name: "detect.lock_acquires", unit: "count"},
	{name: "detect.mem_mb", unit: "MB"},
	{name: "detect.races", unit: "count"},
	{name: "trace.entries", unit: "count"},
	{name: "trace.bytes_per_entry", unit: "B"},
	{name: "trace.record_ns_per_entry", unit: "ns"},
	{name: "trace.load_ns_per_entry", unit: "ns"},
	{name: "trace.stream_ns_per_entry", unit: "ns"},
	{name: "trace.index_ns_per_event", unit: "ns"},
	{name: "replay.rebuild_ms", unit: "ms"},
	{name: "replay.detect_ms", unit: "ms"},
	{name: "replay.merge_ms", unit: "ms"},
	{name: "replay.rebuild_ms.depa", unit: "ms"},
	{name: "replay.entries_per_s", unit: "1/s", higher: true},
	{name: "replay.stream_entries_per_s", unit: "1/s", higher: true},
	{name: "replay.max_shard_share", unit: "ratio"},
	{name: "replay.stream_peak_blocks", unit: "count"},
	{name: "bench.trace_overhead_x", unit: "x"},
}

// percentileMetric reports whether name is read off a latency histogram
// (merged over all passes) rather than taken as a median over passes.
func percentileMetric(name string) bool {
	return strings.HasSuffix(strings.TrimSuffix(name, ".depa"), "_p50") || strings.HasSuffix(name, "_p99")
}

// layerMetrics derives the per-layer metrics from one bucket, all but
// the two remainders reduce adds, and the two walls (base_t1_ms,
// traced_full_t1_ms) the accounting needs beside them. A metric whose
// inputs the bucket lacks (a first-pass-only cell in a later pass)
// comes out NaN.
func layerMetrics(b *bucket, runFixedUs float64) map[string]float64 {
	div := func(a, d float64) float64 {
		if d == 0 {
			return math.NaN()
		}
		return a / d
	}
	full, dp, off := &b.scope[scFull], &b.scope[scDepa], &b.scope[scOffline]
	place, prec := &full[bPlace], &full[bPrecedes]
	accesses := float64(full[bRead].Count + full[bWrite].Count)
	// Every busy total is a difference of walls between runs of the traced
	// cell with the same wrappers installed: what the cell saves when the
	// calls into a layer are counted but not made, and, for the Precedes
	// queries detection cannot do without, what it gains when each is made
	// twice. That is exact whatever a call costs, where sampled 10 ns
	// spans over-read by about the clock's own resolution; the spans give
	// the latency percentiles and the span file, nothing else.
	detectBusy := b.ms[cTrFull] - b.ms[cTrNoDetect]
	placeBusy := b.ms[cTrNoDetect] - b.ms[cTrNoCore]
	precedesBusy := b.ms[cTrPrecedes2x] - b.ms[cTrFull]
	fastShare, lockAcquires := math.NaN(), math.NaN()
	if b.statsRuns > 0 {
		fastShare, lockAcquires = div(float64(b.fastHits), accesses), float64(b.lockAcquires)
	}
	return map[string]float64{
		"base_t1_ms":                  b.ms[cBaseT1],
		"traced_full_t1_ms":           b.ms[cTrFull],
		"base_tp_ms":                  b.ms[cBaseTP],
		"full_t1_ms":                  b.ms[cFullT1],
		"full_tp_ms":                  b.ms[cFullTP],
		"replay_ms":                   b.ms[cReplay],
		"replay_stream_ms":            b.ms[cReplayStream],
		"sched.strands":               float64(b.strands),
		"sched.futures":               float64(b.futures),
		"sched.steals":                float64(b.steals),
		"sched.base_ns_per_strand":    div(b.ms[cBaseTP]*1e6, float64(b.strands)),
		"sched.run_fixed_us":          runFixedUs,
		"core.events":                 float64(place.Count),
		"core.place_ns_p50":           place.percentile(0.50),
		"core.place_ns_p99":           place.percentile(0.99),
		"core.place_busy_ms":          placeBusy,
		"core.queries":                float64(prec.Count),
		"core.precedes_ns_p50":        prec.percentile(0.50),
		"core.precedes_ns_p99":        prec.percentile(0.99),
		"core.precedes_busy_ms":       precedesBusy,
		"core.place_ns_p50.depa":      dp[bPlace].percentile(0.50),
		"core.precedes_ns_p50.depa":   dp[bPrecedes].percentile(0.50),
		"core.mem_mb":                 float64(b.reachMem) / 1e6,
		"detect.reads":                float64(full[bRead].Count),
		"detect.writes":               float64(full[bWrite].Count),
		"detect.read_ns_p50":          full[bRead].percentile(0.50),
		"detect.read_ns_p99":          full[bRead].percentile(0.99),
		"detect.write_ns_p50":         full[bWrite].percentile(0.50),
		"detect.write_ns_p99":         full[bWrite].percentile(0.99),
		"detect.close_ns_p50":         full[bClose].percentile(0.50),
		"detect.close_ns_p99":         full[bClose].percentile(0.99),
		"detect.busy_ms":              detectBusy,
		"detect.queries_per_access":   div(float64(prec.Count), accesses),
		"detect.fastpath_hit_share":   fastShare,
		"detect.lock_acquires":        lockAcquires,
		"detect.mem_mb":               float64(b.histMem) / 1e6,
		"detect.races":                float64(b.races),
		"trace.entries":               float64(b.capEntries),
		"trace.bytes_per_entry":       div(float64(b.capBytes), float64(b.capEntries)),
		"trace.record_ns_per_entry":   div((b.ms[cRecordTP]-b.ms[cBaseTP])*1e6, float64(b.recEntries)),
		"trace.load_ns_per_entry":     div(float64(off[bLoad].Busy), float64(b.capEntries)),
		"trace.stream_ns_per_entry":   div(float64(off[bStream].Busy), float64(b.capEntries)),
		"trace.index_ns_per_event":    div(float64(off[bIndex].Busy), float64(b.capEvents)),
		"replay.rebuild_ms":           b.rebuildMs,
		"replay.detect_ms":            b.detectMs,
		"replay.merge_ms":             b.mergeMs,
		"replay.rebuild_ms.depa":      b.rebuildDepaMs,
		"replay.entries_per_s":        div(float64(b.capEntries)*1e3, b.ms[cReplay]),
		"replay.stream_entries_per_s": div(float64(b.capEntries)*1e3, b.ms[cReplayStream]),
		"replay.max_shard_share":      div(b.shardLoad, float64(b.capEntries)),
		"replay.stream_peak_blocks":   float64(b.peakBlocks),
		"bench.trace_overhead_x":      div(b.ms[cTrFull], b.ms[cFullT1]),
	}
}

// reduce turns per-pass buckets into metric values: histogram
// percentiles from the buckets merged over all passes, everything else
// the median over the passes that measured it, and last the two
// remainders, taken from those medians so that the parts add up to the
// whole exactly.
func reduce(perPass []bucket, runFixedUs float64) map[string]float64 {
	var merged bucket
	byPass := make([]map[string]float64, len(perPass))
	for k := range perPass {
		merged.add(&perPass[k])
		byPass[k] = layerMetrics(&perPass[k], runFixedUs)
	}
	out := layerMetrics(&merged, runFixedUs)
	for name := range out {
		if percentileMetric(name) {
			continue
		}
		xs := make([]float64, len(byPass))
		for k := range byPass {
			xs[k] = byPass[k][name]
		}
		out[name] = median(xs)
	}
	// What the untraced full_t1 leaves after base_t1 and the two busy
	// times, and what detect's busy time leaves after the queries nested
	// in it.
	out["sched.self_ms"] = out["full_t1_ms"] - out["base_t1_ms"] - out["core.place_busy_ms"] - out["detect.busy_ms"]
	out["detect.self_ms"] = out["detect.busy_ms"] - out["core.precedes_busy_ms"]
	return out
}

// accounting is the closing check of the traced full_t1 cell: what the
// boundaries explain of the untraced wall, and what the traced wall has
// beyond it. Whole workload, ms.
type accounting struct {
	BaseT1Ms        float64 `json:"base_t1_ms"`
	CorePlaceBusyMs float64 `json:"core_place_busy_ms"`
	DetectBusyMs    float64 `json:"detect_busy_ms"`
	SchedSelfMs     float64 `json:"sched_self_ms"`
	FullT1Ms        float64 `json:"full_t1_ms"`
	UnexplainedMs   float64 `json:"unexplained_ms"`
	TracedFullT1Ms  float64 `json:"traced_full_t1_ms"`
}

// perLayer derives the per-layer metrics from a traced measurement, for
// the whole workload and for each breakdown row, and the whole
// workload's accounting.
func (m *measurement) perLayer() ([]metricValue, *accounting) {
	whole := make([]bucket, m.passes)
	for k, groups := range m.buckets {
		for g := range groups {
			whole[k].add(&groups[g])
		}
	}
	total := reduce(whole, m.runFixedUs)
	rows := make([]map[string]float64, len(m.def.groups))
	for g := range rows {
		per := make([]bucket, m.passes)
		for k := range per {
			per[k] = m.buckets[k][g]
		}
		rows[g] = reduce(per, m.runFixedUs)
	}
	out := make([]metricValue, len(perLayerDefs))
	for i, d := range perLayerDefs {
		mv := metricValue{Name: d.name, Unit: d.unit, Value: num(total[d.name])}
		if len(rows) > 1 {
			mv.PerProgram = map[string]num{}
			for g, name := range m.def.groups {
				mv.PerProgram[name] = num(rows[g][d.name])
			}
		}
		out[i] = mv
	}
	return out, &accounting{
		BaseT1Ms: total["base_t1_ms"], CorePlaceBusyMs: total["core.place_busy_ms"], DetectBusyMs: total["detect.busy_ms"],
		SchedSelfMs: total["sched.self_ms"], FullT1Ms: total["full_t1_ms"],
		UnexplainedMs:  total["traced_full_t1_ms"] - total["full_t1_ms"],
		TracedFullT1Ms: total["traced_full_t1_ms"],
	}
}
