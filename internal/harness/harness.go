// Package harness runs the paper's benchmarks under the paper's
// configurations — each one an internal/engine configuration at a base,
// reach or full instrumentation level — and regenerates its evaluation
// artifacts:
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
	"runtime"

	"sforder/internal/engine"
	"sforder/internal/workload"
)

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

// Config is one measured configuration: an engine configuration — whose
// zero value is the shipping one — at one of the paper's three
// instrumentation levels. Mode decides whether the engine's Detector
// runs at all (Base) and whether it checks accesses (Full) or only
// maintains reachability (Reach).
type Config struct {
	engine.Config
	Mode Mode
}

// Result is one measured run.
type Result = engine.Result

// Run executes benchmark b once under cfg and returns the measurement.
// The benchmark's Verify hook is checked; a failed run or a verification
// failure is an error (the run was not a valid measurement).
func Run(b *workload.Benchmark, cfg Config) (*Result, error) {
	if cfg.Detector == engine.MultiBags && !cfg.Serial && cfg.Mode != Base {
		return nil, fmt.Errorf("harness: MultiBags requires Serial (it is a sequential algorithm)")
	}
	ecfg := cfg.Config
	ecfg.ReachabilityOnly = cfg.Mode == Reach
	if cfg.Mode == Base {
		ecfg.Detector = engine.NoDetector
	}
	run := b.Make()
	res, err := engine.Run(ecfg, run.Main)
	if err != nil {
		return nil, fmt.Errorf("harness: %s %v/%v: %w", b.Name, cfg.Detector, cfg.Mode, err)
	}
	if err := run.Verify(); err != nil {
		return nil, fmt.Errorf("harness: %s %v/%v verification: %w", b.Name, cfg.Detector, cfg.Mode, err)
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
// detection in the shipping configuration (so the capture tap sees the
// batched access stream) with the sftrace recorder attached, and returns
// the raw capture bytes — the canonical input to offline replay tests
// and benchmarks: feed them to trace.Load + replay.Run, or directly to
// replay.RunStream.
func RecordCapture(b *workload.Benchmark, workers int) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := Run(b, Config{Mode: Full, Config: engine.Config{Workers: workers, Record: &buf}}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
