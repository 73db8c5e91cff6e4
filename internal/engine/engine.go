// Package engine is the one place a detector is assembled: a
// reachability component (SF-Order on one of its substrates, F-Order,
// MultiBags, WSP-Order, or none) is paired with an access history and a
// scheduler run, with the recorder, the stats registry and the timeline
// attached where asked. The public API (package sforder), the evaluation
// harness, cmd/sforder and cmd/sfgen all run through Run; the zero Config
// is the shipping configuration — SF-Order on the OM substrate, the
// lock-avoiding history, ReadersAll.
package engine

import (
	"fmt"
	"io"
	"time"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/forder"
	"sforder/internal/multibags"
	"sforder/internal/obsv"
	"sforder/internal/sched"
	"sforder/internal/trace"
	"sforder/internal/wsp"
)

// Detector selects the race-detection algorithm (package sforder's
// constants of the same names document each one).
type Detector int

const (
	SFOrder    Detector = iota // the paper's parallel detector for structured futures
	FOrder                     // parallel baseline for general futures (Xu et al., PPoPP'20)
	MultiBags                  // sequential baseline (Utterback et al., PPoPP'19); forces Serial
	WSPOrder                   // fork-join only (SPAA'16); panics on the first Create/Get
	NoDetector                 // no instrumentation
)

func (d Detector) String() string {
	switch d {
	case SFOrder:
		return "SF-Order"
	case FOrder:
		return "F-Order"
	case MultiBags:
		return "MultiBags"
	case WSPOrder:
		return "WSP-Order"
	case NoDetector:
		return "none"
	default:
		return fmt.Sprintf("Detector(%d)", int(d))
	}
}

// ParseDetector maps a command-line name to a Detector: sforder, forder
// or multibags, the three the paper's Figure 4 compares.
func ParseDetector(name string) (Detector, error) {
	switch name {
	case "sforder":
		return SFOrder, nil
	case "forder":
		return FOrder, nil
	case "multibags":
		return MultiBags, nil
	}
	return SFOrder, fmt.Errorf("unknown detector %q (want sforder, forder or multibags)", name)
}

// Config is one engine configuration. The zero value is what ships. It is
// also the paper's instrumentation level (§4): base is NoDetector, reach
// is ReachabilityOnly, and full is any other detector.
type Config struct {
	Detector Detector
	// Reach selects SFOrder's reachability substrate; other detectors
	// ignore it.
	Reach core.Substrate
	// Workers is the parallel engine's worker count (0 = GOMAXPROCS),
	// ignored when Serial, the sequential depth-first executor.
	Workers int
	Serial  bool
	// ReachabilityOnly maintains the reachability structures but checks
	// no memory accesses (the paper's "reach" configuration).
	ReachabilityOnly bool
	// Policy selects reader retention. ReadersLR is sound only for the
	// detectors with a left-of order, SFOrder and WSPOrder.
	Policy detect.ReaderPolicy
	// MaxRaces caps retained detailed race records (0 = 256);
	// DedupByAddr retains at most one per address.
	MaxRaces    int
	DedupByAddr bool
	// LockedHistory takes the access history off its strand-buffered
	// path: every access takes its shadow page's lock, as in the paper's
	// implementation (ABL7). The racy locations are the same either way.
	LockedHistory bool
	// CheckStructure is sched.Options.CheckStructure.
	CheckStructure bool
	// Stats, when non-nil, is attached to the run: every component
	// registers its counters on it and Result.Stats is the post-run
	// snapshot.
	Stats *obsv.Registry
	// Trace, when non-nil, receives the strand timeline in Chrome
	// trace-event JSON. The stream is finalized before Run returns; write
	// errors surface as Run's error.
	Trace io.Writer
	// Record, when non-nil, captures the run — dag events plus the
	// deduplicated access stream — in the sftrace format for offline
	// replay, under any Detector. The capture is finalized before Run
	// returns; write errors surface as Run's error.
	Record io.Writer
}

// Result reports one run.
type Result struct {
	// Elapsed is the wall-clock time of the execution itself.
	Elapsed time.Duration
	Counts  sched.Counts
	// Queries is the number of reachability queries served.
	Queries uint64
	// Races holds up to MaxRaces detailed reports, RaceCount is the
	// total, and RacyAddrs the sorted set of addresses raced on.
	Races     []detect.Race
	RaceCount uint64
	RacyAddrs []uint64
	// ReachMem and HistMem estimate detector memory in bytes.
	ReachMem int
	HistMem  int
	// Stats is the registry snapshot, present when Config.Stats was set.
	Stats map[string]int64
}

// reachComponent is what every reachability implementation provides.
type reachComponent interface {
	sched.Tracer
	detect.Reachability
	MemBytes() int
	Queries() uint64
	RegisterStats(*obsv.Registry)
}

// Run executes main under cfg. A configuration error returns a nil
// Result before anything is allocated. A failed execution (a panic in a
// parallel worker, a recorder write error) returns the error together
// with the Result of everything detected before the abort — the races a
// crashing program already exposed are the ones worth keeping. In Serial
// mode panics propagate to the caller.
func Run(cfg Config, main func(*sched.Task)) (*Result, error) {
	return run(cfg, main, nil)
}

// run is Run with the access checker it assembled passed through
// interpose, when non-nil, before the scheduler gets it: the tests' way to
// put a wrapper between the engine and the history, as the benchmark's
// timing wrappers do.
func run(cfg Config, main func(*sched.Task), interpose func(sched.AccessChecker) sched.AccessChecker) (*Result, error) {
	if cfg.Detector < SFOrder || cfg.Detector > NoDetector {
		return nil, fmt.Errorf("unknown detector %v", cfg.Detector)
	}
	if err := cfg.Reach.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == detect.ReadersLR && (cfg.Detector == FOrder || cfg.Detector == MultiBags) {
		return nil, fmt.Errorf("ReadersLR is only sound for the SFOrder and WSPOrder detectors, not %v", cfg.Detector)
	}

	var reach reachComponent
	var leftOf func(a, b *sched.Strand) bool
	switch cfg.Detector {
	case SFOrder:
		sf := core.New(core.Config{Reach: cfg.Reach})
		// The Result holds only values — counts, Race records, a stats
		// snapshot — so the arena slabs go back to their pools on every
		// return path, after it is assembled.
		defer sf.Release()
		reach, leftOf = sf, sf.LeftOf
	case FOrder:
		reach = forder.NewReach()
	case MultiBags:
		reach = multibags.NewReach()
		cfg.Serial = true
	case WSPOrder:
		w := wsp.NewReach()
		reach, leftOf = w, w.LeftOf
	}

	opts := sched.Options{
		Serial:         cfg.Serial,
		Workers:        cfg.Workers,
		CheckStructure: cfg.CheckStructure,
		Stats:          cfg.Stats,
	}
	if cfg.Trace != nil {
		opts.Trace = obsv.NewTraceWriter(cfg.Trace)
	}
	var rec *trace.Recorder
	if cfg.Record != nil {
		rec = trace.NewRecorder(cfg.Record)
		opts.Aux = rec
		if cfg.Stats != nil {
			rec.RegisterStats(cfg.Stats)
		}
	}
	var hist *detect.History
	if reach != nil {
		opts.Tracer = reach
		if cfg.Stats != nil {
			reach.RegisterStats(cfg.Stats)
		}
		if !cfg.ReachabilityOnly {
			hopts := detect.Options{
				Reach:       reach,
				Policy:      cfg.Policy,
				LeftOf:      leftOf,
				MaxRaces:    cfg.MaxRaces,
				DedupByAddr: cfg.DedupByAddr,
				FastPath:    !cfg.LockedHistory,
			}
			if rec != nil {
				// The history taps the recorder with the deduplicated
				// access stream it applies — the capture carries exactly
				// what online detection saw.
				hopts.Tap = rec
			}
			hist = detect.NewHistory(hopts)
			if cfg.Stats != nil {
				hist.RegisterStats(cfg.Stats)
			}
			opts.Checker = hist
		}
	}
	if rec != nil && hist == nil {
		// No access history to tap: the recorder is the page sink, so sched
		// buffers the accesses for it by the history's rule, and NoDetector
		// and ReachabilityOnly runs write the capture a detecting run does.
		opts.Checker = rec
	}
	if interpose != nil && opts.Checker != nil {
		opts.Checker = interpose(opts.Checker)
	}

	start := time.Now()
	counts, err := sched.Run(opts, main)
	res := &Result{Elapsed: time.Since(start), Counts: counts}
	if rec != nil {
		if cerr := rec.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("record: %w", cerr)
		}
	}
	if opts.Trace != nil {
		if cerr := opts.Trace.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: %w", cerr)
		}
	}
	if reach != nil {
		res.Queries = reach.Queries()
		res.ReachMem = reach.MemBytes()
	}
	if hist != nil {
		res.Races = hist.Races()
		res.RaceCount = hist.RaceCount()
		res.RacyAddrs = hist.RacyAddrs()
		res.HistMem = hist.MemBytes()
	}
	if cfg.Stats != nil {
		res.Stats = cfg.Stats.Snapshot()
	}
	return res, err
}
