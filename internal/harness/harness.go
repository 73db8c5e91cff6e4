// Package harness runs the paper's benchmarks under the paper's
// configurations — each one an internal/engine configuration, whose
// detector and ReachabilityOnly fields are its base, reach or full
// instrumentation level — and regenerates its evaluation artifacts:
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

// Level names cfg's instrumentation level in the paper's terms (§4):
// base runs no detector, reach maintains the reachability structures but
// checks no accesses, full runs complete race detection.
func Level(cfg engine.Config) string {
	switch {
	case cfg.Detector == engine.NoDetector:
		return "base"
	case cfg.ReachabilityOnly:
		return "reach"
	}
	return "full"
}

// Run executes benchmark b once under cfg and checks the benchmark's
// Verify hook; a failed run or a verification failure is an error (the
// run was not a valid measurement).
func Run(b *workload.Benchmark, cfg engine.Config) (*engine.Result, error) {
	run := b.Make()
	res, err := engine.Run(cfg, run.Main)
	if err != nil {
		return nil, fmt.Errorf("harness: %s %v/%s: %w", b.Name, cfg.Detector, Level(cfg), err)
	}
	if err := run.Verify(); err != nil {
		return nil, fmt.Errorf("harness: %s %v/%s verification: %w", b.Name, cfg.Detector, Level(cfg), err)
	}
	return res, nil
}

// RunBest runs cfg `repeats` times and returns the fastest measurement
// (minimum wall-clock), the usual stabilizer for small benchmarks.
func RunBest(b *workload.Benchmark, cfg engine.Config, repeats int) (*engine.Result, error) {
	if repeats < 1 {
		repeats = 1
	}
	var best *engine.Result
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
	if _, err := Run(b, engine.Config{Workers: workers, Record: &buf}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
