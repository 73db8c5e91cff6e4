// Package sforder is a parallel on-the-fly determinacy race detector for
// task-parallel programs with fork-join and structured-future
// parallelism, implementing SF-Order (Xu, Agrawal, Lee, "Efficient
// Parallel Determinacy Race Detection for Structured Futures", SPAA
// 2021) together with the baselines it is evaluated against (F-Order for
// general futures and the sequential MultiBags).
//
// Programs are written against the Task API — Spawn/Sync for fork-join
// parallelism, Create/Get for structured futures — and annotate the
// memory accesses the detector should observe with Task.Read and
// Task.Write on application-chosen shadow addresses:
//
//	result, err := sforder.Run(sforder.Config{Detector: sforder.SFOrder}, func(t *sforder.Task) {
//		h := t.Create(func(c *sforder.Task) any {
//			c.Write(0)
//			return 42
//		})
//		t.Write(0) // races with the future body
//		_ = t.Get(h)
//	})
//	for _, race := range result.Races { fmt.Println(race) }
//
// A determinacy race is reported iff two logically parallel strands make
// conflicting accesses to the same address — soundly and completely for
// the given input, per the guarantees of the underlying algorithms.
//
// Structured futures obey two restrictions (paper §2): each future
// handle is touched by Get at most once (single-touch), and the Get must
// be reachable from the Create's continuation without passing through
// the created task (get-reachability). Violating the first always
// panics. Three complementary tools enforce the full contract:
// Config.CheckStructure validates both restrictions on the fly with O(1)
// overhead per operation, CheckStructured records a serial run and
// validates the dag exhaustively, and cmd/sfvet statically analyzes the
// program source before any execution.
package sforder

import (
	"fmt"
	"io"
	"time"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/engine"
	"sforder/internal/obsv"
	"sforder/internal/replay"
	"sforder/internal/sched"
)

// Task is the execution context of one function instance; user code
// receives one and expresses parallelism through its methods.
type Task = sched.Task

// Future is the single-touch handle returned by Task.Create.
type Future = sched.Future

// Race describes one reported determinacy race.
type Race = detect.Race

// AccessKind tags the two sides of a Race.
type AccessKind = detect.AccessKind

// Access kinds.
const (
	AccessRead  = detect.AccessRead
	AccessWrite = detect.AccessWrite
)

// Detector selects the race-detection algorithm.
type Detector = engine.Detector

const (
	// SFOrder is the paper's parallel detector for structured futures:
	// constant-time reachability queries, O((T1+k²)/P + T∞ lg k)
	// running time for k futures.
	SFOrder = engine.SFOrder
	// FOrder is the parallel detector for general (unrestricted)
	// futures — higher overhead, no structured-future assumptions.
	FOrder = engine.FOrder
	// MultiBags is the sequential detector for structured futures —
	// the lowest one-core overhead, but it forces serial execution.
	MultiBags = engine.MultiBags
	// WSPOrder is the asymptotically optimal detector for pure
	// fork-join programs (WSP-Order, SPAA'16) — the algorithm SF-Order
	// builds on. It panics on the first Create/Get: programs with
	// futures need SFOrder or FOrder.
	WSPOrder = engine.WSPOrder
	// NoDetector executes the program without any instrumentation.
	NoDetector = engine.NoDetector
)

// ReachBackend selects the reachability substrate of the SFOrder
// detector (the -reach flag of cmd/sforder). Other detectors ignore it.
type ReachBackend = core.Substrate

const (
	// ReachDePa (default) uses immutable DePa-style fork-path labels
	// stored as prefix-sharing cords: no relabeling and no maintenance
	// lock, O(strands) total label memory, and order comparisons that
	// skip the shared prefix by pointer equality (ABL10/ABL11).
	ReachDePa = core.SubstrateDePa
	// ReachOM is the paper's English/Hebrew order-maintenance list pair:
	// O(1) amortized labels, maintenance lock at splits and
	// renumberings. The frozen benchmark's online rows still measure it
	// until ROADMAP 1(a).
	ReachOM = core.SubstrateOM
)

// ReaderPolicy selects how many previous readers the access history
// keeps per location.
type ReaderPolicy = detect.ReaderPolicy

const (
	// ReadersAll keeps every reader between two writes (required for
	// FOrder; the paper's SF-Order implementation also uses it).
	ReadersAll = detect.ReadersAll
	// ReadersLR keeps the leftmost and rightmost reader per (location,
	// future) — at most 2k readers — valid for SFOrder only (§3.5).
	ReadersLR = detect.ReadersLR
)

// Config configures Run.
type Config struct {
	// Detector selects the algorithm; default SFOrder.
	Detector Detector
	// Workers is the worker count for parallel execution (0 =
	// GOMAXPROCS). Ignored when Serial.
	Workers int
	// Serial runs the program on the sequential depth-first executor.
	// MultiBags requires it and forces it on.
	Serial bool
	// ReachabilityOnly maintains the detector's reachability structures
	// but checks no memory accesses (the paper's "reach" configuration).
	ReachabilityOnly bool
	// Policy selects reader retention for full detection.
	Policy ReaderPolicy
	// MaxRaces caps retained detailed race records (0 = 256).
	MaxRaces int
	// LockedHistory takes the access history off its lock-avoiding path
	// (the ABL7 ablation): every access takes its shadow page's lock, as
	// in the paper's implementation. By default a strand's repeated
	// accesses to a location are dropped by an exact strand-local dedup,
	// the rest are buffered per strand and applied one lock acquisition
	// per shadow page when the strand ends; detection at location
	// granularity is the same either way (DESIGN.md §4).
	LockedHistory bool
	// DedupByAddr reports at most one detailed race record per memory
	// location: after the first report on an address, later races there
	// are counted in RaceCount but not retained in Races. Keeps reports
	// readable on programs with systematic races (e.g. a racy loop).
	DedupByAddr bool
	// Stats collects the observability registry — the named counters
	// every component publishes (sched.*, reach.*, depa.* or om.*,
	// hist.*) — and returns its snapshot as Result.Stats. Off by default;
	// enabling it does not perturb the hot paths (the registry reads the
	// same atomics the components already maintain).
	Stats bool
	// Trace, when non-nil, streams the strand timeline to it in Chrome
	// trace-event JSON (chrome://tracing, Perfetto): per-strand
	// begin/end slices, spawn/create/sync/put/get instants, and steal
	// events. Tracing performs I/O per dag event; meant for modest runs.
	Trace io.Writer
	// CheckStructure enables the on-the-fly structured-futures checker:
	// every Create/Get validates the SF restrictions (paper §2) in O(1)
	// per operation — single-touch violations panic with the Create,
	// first-Get, and second-Get sites, and gets whose handle cannot have
	// structurally reached the getting task (a get inside the created
	// task, or a handle smuggled backwards through shared memory) panic
	// instead of silently voiding the detector's guarantees. Complements
	// the post-hoc CheckStructured validator (which needs a recorded
	// dag) and the static cmd/sfvet analyzer. Violations surface as
	// Run's error in parallel mode and panic in Serial mode.
	CheckStructure bool
	// Reach selects the SFOrder reachability substrate: DePa fork-path
	// cords (default) or the paper's OM list pair.
	Reach ReachBackend
	// Record, when non-nil, captures the run — every dag structure
	// event plus the deduplicated access stream — to it in the sftrace
	// format (internal/trace), for offline re-detection with Replay.
	// Recording composes with any Detector, including NoDetector: a
	// production run can record at near-zero detection cost and defer
	// race checking entirely to replay. The capture is finalized when
	// Run returns; write errors surface as Run's error.
	Record io.Writer
}

// Result reports a completed run.
type Result struct {
	// Races holds up to MaxRaces detailed reports; RaceCount is the
	// total number detected.
	Races     []Race
	RaceCount uint64
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
	// Queries is the number of reachability queries served.
	Queries uint64
	// Strands and Futures describe the executed computation dag.
	Strands uint64
	Futures uint64
	// ReachMemBytes and HistoryMemBytes estimate detector memory.
	ReachMemBytes   int
	HistoryMemBytes int
	// Stats is the observability registry snapshot, present when
	// Config.Stats was set: every counter the components published
	// (sched.*, reach.*, depa.* or om.*, hist.*), by name. See README.md
	// ("Observability") for the catalog.
	Stats map[string]int64
}

// Run executes main under cfg and returns the detection result. The
// returned error is non-nil when the program itself failed (a panic in a
// parallel worker); detected races are data, not errors. On failure the
// Result is still returned alongside the error, carrying everything
// detected before the abort — races found in a crashing program are
// precisely the ones worth keeping. In Serial mode panics propagate to
// the caller instead.
func Run(cfg Config, main func(*Task)) (*Result, error) {
	ecfg := engine.Config{
		Detector:         cfg.Detector,
		Reach:            cfg.Reach,
		Workers:          cfg.Workers,
		Serial:           cfg.Serial,
		ReachabilityOnly: cfg.ReachabilityOnly,
		Policy:           cfg.Policy,
		MaxRaces:         cfg.MaxRaces,
		LockedHistory:    cfg.LockedHistory,
		DedupByAddr:      cfg.DedupByAddr,
		CheckStructure:   cfg.CheckStructure,
		Trace:            cfg.Trace,
		Record:           cfg.Record,
	}
	if cfg.Stats {
		ecfg.Stats = obsv.NewRegistry()
	}
	r, err := engine.Run(ecfg, main)
	if err != nil {
		err = fmt.Errorf("sforder: %w", err)
	}
	if r == nil {
		return nil, err
	}
	return &Result{
		Races:           r.Races,
		RaceCount:       r.RaceCount,
		Elapsed:         r.Elapsed,
		Queries:         r.Queries,
		Strands:         r.Counts.Strands,
		Futures:         r.Counts.Futures,
		ReachMemBytes:   r.ReachMem,
		HistoryMemBytes: r.HistMem,
		Stats:           r.Stats,
	}, err
}

// ReplayConfig configures Replay.
type ReplayConfig struct {
	// Workers is the number of detection shards replayed in parallel
	// (0 = GOMAXPROCS). The race set is identical for every worker
	// count; access blocks are routed by shadow page — a location lives
	// in one page, a page in one shard — so no location's history splits.
	Workers int
	// MaxRaces caps retained detailed race records (0 = 256), applied
	// after the deterministic cross-shard merge.
	MaxRaces int
	// DedupByAddr retains at most one detailed record per address.
	DedupByAddr bool
}

// ReplayResult reports a completed offline replay.
type ReplayResult = replay.Result

// Replay streams a capture recorded via Config.Record from r: structure
// events rebuild the computation dag on DePa labels as they are decoded,
// and access blocks go, through a bounded ready-queue, to Workers
// parallel detection shards routed by shadow page (a location lives in
// one page, a page in one shard). The capture is
// never loaded into memory, so arbitrarily long traces replay in constant
// resident space. The location-level verdict (which addresses race)
// equals the online run's; the detailed race list is deterministic —
// independent of Workers and of the recorded schedule.
func Replay(r io.Reader, cfg ReplayConfig) (*ReplayResult, error) {
	res, err := replay.RunStream(r, replay.Options{
		Workers:     cfg.Workers,
		MaxRaces:    cfg.MaxRaces,
		DedupByAddr: cfg.DedupByAddr,
	})
	if err != nil {
		return nil, fmt.Errorf("sforder: replay: %w", err)
	}
	return res, nil
}

// GetTyped retrieves a future's value with a type assertion, panicking
// with a descriptive message on mismatch. It is sugar over Task.Get for
// value-returning futures:
//
//	n := sforder.GetTyped[int](t, h)
func GetTyped[T any](t *Task, f *Future) T {
	v := t.Get(f)
	out, ok := v.(T)
	if !ok {
		panic(fmt.Sprintf("sforder: future value is %T, not %T", v, out))
	}
	return out
}
