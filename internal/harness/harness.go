// Package harness assembles detectors, runs the paper's benchmarks under
// the paper's configurations, and regenerates its evaluation artifacts:
//
//   - Figure 3: benchmark execution characteristics (reads, writes,
//     reachability queries, futures, dag nodes);
//   - Figure 4: base/reach/full execution times for MultiBags, F-Order
//     and SF-Order at one worker and at P workers, with overhead and
//     scalability annotations;
//   - Figure 5: reachability-maintenance memory, F-Order vs SF-Order.
//
// The harness measures wall-clock time per configuration; the benchmark
// package's Verify hook runs after every measurement so a silently
// broken run can never produce a table row.
package harness

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/forder"
	"sforder/internal/multibags"
	"sforder/internal/obsv"
	"sforder/internal/sched"
	"sforder/internal/trace"
	"sforder/internal/workload"
)

// Detector selects a race-detection algorithm.
type Detector int

const (
	// SFOrder is the paper's parallel detector for structured futures.
	SFOrder Detector = iota
	// FOrder is the parallel baseline for general futures (Xu et al.,
	// PPoPP'20).
	FOrder
	// MultiBags is the sequential baseline for structured futures
	// (Utterback et al., PPoPP'19). It forces serial execution.
	MultiBags
)

func (d Detector) String() string {
	switch d {
	case SFOrder:
		return "SF-Order"
	case FOrder:
		return "F-Order"
	case MultiBags:
		return "MultiBags"
	default:
		return fmt.Sprintf("Detector(%d)", int(d))
	}
}

// Mode selects the instrumentation level (paper §4).
type Mode int

const (
	// Base runs without any instrumentation.
	Base Mode = iota
	// Reach maintains the reachability structures but checks no
	// accesses.
	Reach
	// Full runs complete race detection.
	Full
)

func (m Mode) String() string {
	switch m {
	case Base:
		return "base"
	case Reach:
		return "reach"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config is one measured configuration.
type Config struct {
	Detector Detector
	Mode     Mode
	Workers  int  // ≥1; 1 means one worker on the parallel engine
	Serial   bool // use the serial executor (required for MultiBags)
	// Policy selects the reader-retention policy for Full mode;
	// default (ReadersAll) matches the paper's implementation (§4).
	Policy detect.ReaderPolicy
	// CountAccesses enables engine access counters (adds overhead;
	// used by the Figure 3 characterization run).
	CountAccesses bool
	// FastPath enables the access history's lock-avoiding path (exact
	// strand-local dedup + strand batching; ABL7).
	FastPath bool
	// DedupByAddr keeps at most one detailed race record per address.
	DedupByAddr bool
	// Reach selects SF-Order's reachability substrate: the OM list
	// pair (default) or DePa fork-path labels (ABL10).
	Reach core.Substrate
	// OMGlobalLock forces SF-Order's order-maintenance lists back onto
	// the single list-level insert lock instead of fine-grained bucket
	// locking (ABL8). Ignored by the DePa substrate.
	OMGlobalLock bool
	// NoArena disables SF-Order's per-worker slab arenas; dag-event
	// records allocate on the GC heap (ABL8).
	NoArena bool
	// LockDeque selects the scheduler's historical mutex-guarded deque
	// instead of the lock-free Chase–Lev deque (ABL9).
	LockDeque bool
	// Registry, when non-nil, is attached to the run: every component
	// registers its counters on it and Result.Stats carries the
	// post-run snapshot. The table generators read their columns from
	// this snapshot rather than from per-component getters.
	Registry *obsv.Registry
	// Trace, when non-nil, receives the run's strand timeline in Chrome
	// trace-event JSON. The caller closes it.
	Trace *obsv.TraceWriter
	// Record, when non-nil, captures the run (structure events plus the
	// deduplicated access stream) in the sftrace format for offline
	// replay (ABL12). Works in every Mode; the capture is finalized
	// before Run returns.
	Record io.Writer
}

// Result is one measured run.
type Result struct {
	Config   Config
	Elapsed  time.Duration
	Counts   sched.Counts
	Queries  uint64 // reachability queries served
	Races    uint64
	ReachMem int // bytes held by the reachability component
	HistMem  int // bytes held by the access history
	// Stats is the registry snapshot, present when Config.Registry was
	// set. When present, Queries/Races/ReachMem/HistMem above are
	// derived from it.
	Stats map[string]int64
}

// reachComponent is what every reachability implementation provides.
type reachComponent interface {
	sched.Tracer
	detect.Reachability
	MemBytes() int
	Queries() uint64
}

// Run executes benchmark b once under cfg and returns the measurement.
// The benchmark's Verify hook is checked; a verification failure is an
// error (the run was not a valid measurement).
func Run(b *workload.Benchmark, cfg Config) (*Result, error) {
	if cfg.Detector == MultiBags && !cfg.Serial && cfg.Mode != Base {
		return nil, fmt.Errorf("harness: MultiBags requires Serial (it is a sequential algorithm)")
	}
	run := b.Make()

	var reach reachComponent
	var leftOf func(a, b *sched.Strand) bool
	var release func() // returns arena slabs after the measurement
	if cfg.Mode != Base {
		switch cfg.Detector {
		case SFOrder:
			sf := core.New(core.Config{
				Reach:        cfg.Reach,
				GlobalOMLock: cfg.OMGlobalLock,
				NoArena:      cfg.NoArena,
			})
			reach, leftOf, release = sf, sf.LeftOf, sf.Release
		case FOrder:
			reach = forder.NewReach()
		case MultiBags:
			reach = multibags.NewReach()
		default:
			return nil, fmt.Errorf("harness: unknown detector %v", cfg.Detector)
		}
	}

	var hist *detect.History
	opts := sched.Options{
		Serial:        cfg.Serial,
		Workers:       cfg.Workers,
		CountAccesses: cfg.CountAccesses,
		LockDeque:     cfg.LockDeque,
		Stats:         cfg.Registry,
		Trace:         cfg.Trace,
	}
	if reach != nil {
		opts.Tracer = reach
		if cfg.Registry != nil {
			if rs, ok := reach.(interface{ RegisterStats(*obsv.Registry) }); ok {
				rs.RegisterStats(cfg.Registry)
			}
		}
	}
	var rec *trace.Recorder
	if cfg.Record != nil {
		rec = trace.NewRecorder(cfg.Record)
		opts.Aux = rec
		if cfg.Registry != nil {
			rec.RegisterStats(cfg.Registry)
		}
	}
	if cfg.Mode == Full {
		hopts := detect.Options{
			Reach:       reach,
			Policy:      cfg.Policy,
			DedupByAddr: cfg.DedupByAddr,
			FastPath:    cfg.FastPath,
		}
		if rec != nil {
			hopts.Tap = rec
		}
		if cfg.Policy == detect.ReadersLR {
			if leftOf == nil {
				return nil, fmt.Errorf("harness: ReadersLR policy requires SF-Order")
			}
			hopts.LeftOf = leftOf
		}
		hist = detect.NewHistory(hopts)
		if cfg.Registry != nil {
			hist.RegisterStats(cfg.Registry)
		}
		opts.Checker = hist
	}
	if rec != nil && hist == nil {
		// Base and Reach modes have no access history to tap; the
		// recorder observes the access stream directly.
		opts.Checker = rec
	}

	if release != nil {
		// The measurement keeps no strand pointers — Result carries only
		// counts and the stats snapshot — so the arena slabs can go back
		// to their pools for the next run. Runs after every return path,
		// and after the Stats snapshot below.
		defer release()
	}

	start := time.Now()
	counts, err := sched.Run(opts, run.Main)
	elapsed := time.Since(start)
	if rec != nil {
		if cerr := rec.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("record: %w", cerr)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("harness: %s %v/%v: %w", b.Name, cfg.Detector, cfg.Mode, err)
	}
	if err := run.Verify(); err != nil {
		return nil, fmt.Errorf("harness: %s %v/%v verification: %w", b.Name, cfg.Detector, cfg.Mode, err)
	}

	res := &Result{Config: cfg, Elapsed: elapsed, Counts: counts}
	if cfg.Registry != nil {
		// With a registry attached, the registry is the source of truth:
		// the result columns are read back from the snapshot, which is
		// what the table generators consume.
		res.Stats = cfg.Registry.Snapshot()
		res.Queries = uint64(res.Stats["reach.queries"])
		res.ReachMem = int(res.Stats["reach.mem_bytes"])
		res.Races = uint64(res.Stats["hist.races"])
		res.HistMem = int(res.Stats["hist.mem_bytes"])
		return res, nil
	}
	if reach != nil {
		res.Queries = reach.Queries()
		res.ReachMem = reach.MemBytes()
	}
	if hist != nil {
		res.Races = hist.RaceCount()
		res.HistMem = hist.MemBytes()
	}
	return res, nil
}

// RunBest runs cfg `repeats` times and returns the fastest measurement
// (minimum wall-clock), the usual stabilizer for small benchmarks.
func RunBest(b *workload.Benchmark, cfg Config, repeats int) (*Result, error) {
	if repeats < 1 {
		repeats = 1
	}
	var best *Result
	for i := 0; i < repeats; i++ {
		r, err := Run(b, cfg)
		if err != nil {
			return nil, err
		}
		if best == nil || r.Elapsed < best.Elapsed {
			best = r
		}
	}
	return best, nil
}

// DefaultWorkers returns the worker count used for the paper's "T20"
// column on this machine: GOMAXPROCS, at least 2.
func DefaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	return w
}

// RecordCapture runs benchmark b once under full online SF-Order
// detection (fast path on, so the capture tap sees the batched access
// stream) with the sftrace recorder attached, and returns the raw
// capture bytes — the canonical input to offline replay tests and
// benchmarks: feed them to trace.Load + replay.Run, or directly to
// replay.RunStream.
func RecordCapture(b *workload.Benchmark, workers int) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := Run(b, Config{
		Detector: SFOrder, Mode: Full,
		Workers: workers, FastPath: true, Record: &buf,
	}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
