// Command bench is the repository's benchmark: four workloads in the
// shipping configuration, six bounded end-to-end metrics and a failure
// count, and a separate traced run that times the calls crossing each
// layer boundary. README.md in this directory has the workload and
// metric tables and how to read the output.
//
//	bash bench/run.sh                                  full set: five end-to-end runs and one traced run of every workload
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1
//	                                                   one workload, one mode; last stdout line is the result object
//	bash bench/run.sh -compare a.json b.json           row-by-row verdicts between two result files
//	bash bench/run.sh -aa                              two full sets back to back must agree
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

const (
	// runSeconds is BENCHMARK.json's run_seconds and the default of
	// -seconds: the length of the timed phase the workloads' fixed pass
	// counts are sized for.
	runSeconds = 24
	// tracedPasses is the traced run's pass count at -seconds runSeconds.
	tracedPasses = 6
	// setRuns is how many end-to-end runs of each workload a full set
	// makes: with seven the quartiles are the second and the sixth value,
	// so one stray run on either side does not set the spread.
	setRuns = 7
)

type options struct {
	seed      int64   // of the generated programs
	seconds   float64 // scales the fixed pass counts: runSeconds gives them as declared
	workers   int     // P
	spansPath string
	// Set by the smoke test only.
	small  bool // test-sized inputs
	passes int  // this many passes whatever seconds says
}

// runWorkload measures one workload in one mode, in this process, and
// folds it into w.
func runWorkload(def *workloadDef, o options, traced bool, sink *spanSink, w *workloadReport) error {
	m, err := measure(def, o, traced, sink)
	if err != nil {
		return err
	}
	if traced {
		w.addTraced(m)
	} else {
		w.addEndToEnd(m.endToEnd(), m.passes, m.attempted, m.failed)
	}
	return nil
}

// runChild makes one end-to-end run of a workload the way the driver
// does — this binary again in a fresh process, the single-workload
// protocol — and folds the result object on its last output line into
// w. A fresh process because what a run measures depends on what the
// process's heap has been through: five runs of dag-futures inside one
// process, between runs of the other workloads, ranged 15% in
// reach_overhead_t1 where ten fresh processes range 7%.
func runChild(def *workloadDef, o options, w *workloadReport) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	out, runErr := exec.Command(exe, "-workload", def.name, "-trace", "0",
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)).Output()
	// A run with failed operations exits non-zero after printing its
	// result object, so the object is what counts.
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line driverLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return fmt.Errorf("%s: run in a child process printed no result object (%v, %v)", def.name, runErr, err)
	}
	values := map[string]float64{}
	for name, m := range line.Metrics {
		values[name] = m.Value
	}
	w.addEndToEnd(values, passCount(def, o, false), line.Attempted, line.Failed)
	return nil
}

// fullSet makes setRuns end-to-end runs of every workload and then one
// traced run of each. A run is what the driver protocol runs once — a
// set-up and the workload's fixed passes — so the spread of a metric
// over the set's runs is its run-to-run spread. The runs sweep the
// workloads, so that one workload's runs lie minutes apart and a slow
// phase of the host shows in the spread, not in one workload's value.
func fullSet(o options, sink *spanSink) (*report, error) {
	r := &report{Schema: reportSchema, Env: newEnv(o.seed, o.small)}
	ws := make([]*workloadReport, len(workloads))
	for i, def := range workloads {
		ws[i] = newWorkloadReport(def)
	}
	for run := 1; run <= setRuns; run++ {
		for i, def := range workloads {
			fmt.Fprintf(os.Stderr, "run %d/%d %s\n", run, setRuns, def.name)
			if err := runChild(def, o, ws[i]); err != nil {
				return nil, err
			}
		}
	}
	for i, def := range workloads {
		fmt.Fprintf(os.Stderr, "traced run %s\n", def.name)
		if err := runWorkload(def, o, true, sink, ws[i]); err != nil {
			return nil, err
		}
		printWorkload(os.Stdout, ws[i])
		r.Workloads = append(r.Workloads, *ws[i])
	}
	return r, nil
}

// openSpans creates the span file; an empty path means no span is kept.
func openSpans(path string) (*spanSink, *os.File, error) {
	if path == "" {
		return nil, nil, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return newSpanSink(f), f, nil
}

func failures(r *report) int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

func run() error {
	var (
		o        options
		workload = flag.String("workload", "", "run one workload (read-dense, write-mixed, dag-futures, racy-small) and print the result object as the last line; empty runs the full set")
		trace    = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics with no wrapper installed, 1 makes the traced run and reports the per-layer metrics")
		out      = flag.String("out", "", "write the result file (JSON) here")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments: a.json b.json")
		aa       = flag.Bool("aa", false, "run two full sets back to back and fail unless every end-to-end row is ok")
	)
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated programs (racy-small); the paper workloads have fixed inputs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the end-to-end timed phase the pass counts are scaled to; the default runs each workload's fixed count")
	flag.StringVar(&o.spansPath, "spans", ".bench_build/spans.jsonl", "write the traced run's raw spans here, one JSON object per line; empty keeps none")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		a, err := readReport(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := readReport(flag.Arg(1))
		if err != nil {
			return err
		}
		if worse, unresolved := compareReports(os.Stdout, a, b); worse > 0 {
			return fmt.Errorf("%d rows worse, %d unresolved", worse, unresolved)
		}
		return nil
	}

	// P = min(nproc, 4): the TP cells' worker count and GOMAXPROCS.
	o.workers = min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(o.workers)
	if *workload != "" && *trace == 0 {
		o.spansPath = "" // no traced run, no spans
	}
	sink, spanFile, err := openSpans(o.spansPath)
	if err != nil {
		return err
	}
	if spanFile != nil {
		defer spanFile.Close() // after the last flush, whose error is the one that counts
	}

	if *workload != "" {
		var def *workloadDef
		for _, d := range workloads {
			if d.name == *workload {
				def = d
			}
		}
		if def == nil {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		w := newWorkloadReport(def)
		if err := runWorkload(def, o, *trace == 1, sink, w); err != nil {
			return err
		}
		printWorkload(os.Stderr, w)
		if *out != "" {
			r := &report{Schema: reportSchema, Env: newEnv(o.seed, o.small), Workloads: []workloadReport{*w}}
			if err := writeJSONFile(*out, r); err != nil {
				return err
			}
		}
		line := newDriverLine(w, *trace == 1)
		buf, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(buf))
		if !line.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", def.name, line.Failed, line.Attempted)
		}
		return nil
	}

	a, err := fullSet(o, sink)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := writeJSONFile(*out, a); err != nil {
			return err
		}
	}
	if n := failures(a); n > 0 {
		return fmt.Errorf("%d operations failed", n)
	}
	if !*aa {
		return nil
	}
	b, err := fullSet(o, nil)
	if err != nil {
		return err
	}
	if n := failures(b); n > 0 {
		return fmt.Errorf("second set: %d operations failed", n)
	}
	fmt.Println("\n== A/A: second set against the first ==")
	if worse, unresolved := compareReports(os.Stdout, a, b); worse+unresolved > 0 {
		return fmt.Errorf("A/A check: %d rows worse, %d unresolved", worse, unresolved)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
