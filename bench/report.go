package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
)

// report is the benchmark's result file (-out) and -compare's input.
type report struct {
	Schema    string           `json:"schema"`
	Env       envInfo          `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

const reportSchema = "sforder-bench/1"

type envInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"` // P: the worker count of the TP cells
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Small      bool   `json:"small,omitempty"`
}

func newEnv(seed int64, small bool) envInfo {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return envInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit, Seed: seed, Small: small,
	}
}

type workloadReport struct {
	Name         string   `json:"name"`
	Why          string   `json:"why"`
	Programs     []string `json:"programs"`
	Runs         int      `json:"runs"`          // end-to-end runs, each a set-up and Passes timed passes
	Passes       int      `json:"passes"`        // per run, two to a round (the warm-up pass is not counted)
	TracedPasses int      `json:"traced_passes"` // passes of the one traced run
	Attempted    int      `json:"attempted"`     // timed cells of single programs, both runs
	Failed       int      `json:"failed"`
	FailedShare  float64  `json:"failed_share"`

	EndToEnd   []metricValue `json:"end_to_end,omitempty"`
	PerLayer   []metricValue `json:"per_layer,omitempty"`
	Accounting *accounting   `json:"accounting,omitempty"`
}

func (w *workloadReport) count(attempted, failed int) {
	w.Attempted += attempted
	w.Failed += failed
	w.FailedShare = float64(w.Failed) / float64(w.Attempted)
}

// addTraced folds the traced run into w.
func (w *workloadReport) addTraced(m *measurement) {
	w.count(m.attempted, m.failed)
	w.TracedPasses = m.passes
	w.PerLayer, w.Accounting = m.perLayer()
}

// addEndToEnd folds one end-to-end run into w: each metric becomes the
// median over the runs so far, with the run values and their quartiles
// beside it.
func (w *workloadReport) addEndToEnd(values map[string]float64, passes, attempted, failed int) {
	w.count(attempted, failed)
	w.Runs, w.Passes = w.Runs+1, passes
	if w.EndToEnd == nil {
		w.EndToEnd = make([]metricValue, len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		v := &w.EndToEnd[i]
		v.Name, v.Unit, v.Bound = d.name, d.unit, d.bound
		v.Runs = append(v.Runs, num(values[d.name]))
		xs := make([]float64, len(v.Runs))
		for k, r := range v.Runs {
			xs[k] = float64(r)
		}
		ds := summarize(xs)
		v.Value, v.Dist = num(median(xs)), &ds
	}
}

func newWorkloadReport(def *workloadDef) *workloadReport {
	return &workloadReport{Name: def.name, Why: def.why, Programs: def.groups}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// num is a float64 that survives encoding/json when it is not finite:
// NaN and the infinities are written as null and read back as NaN.
type num float64

func (n num) MarshalJSON() ([]byte, error) {
	if !finite(float64(n)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(n))
}

func (n *num) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*n = num(math.NaN())
		return nil
	}
	return json.Unmarshal(b, (*float64)(n))
}

// driverLine is the last line of standard output in single-workload
// mode: the result object the benchmark contract asks for.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newDriverLine builds the result object; a metric that did not come
// out finite is itself a failure.
func newDriverLine(w *workloadReport, traced bool) driverLine {
	d := driverLine{Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]driverMetric{}}
	values := w.EndToEnd
	if traced {
		values = w.PerLayer
	}
	for _, v := range values {
		if !finite(float64(v.Value)) {
			fmt.Fprintf(os.Stderr, "FAIL %s: metric %s is %v\n", w.Name, v.Name, v.Value)
			d.Failed++
			v.Value = 0
		}
		d.Metrics[v.Name] = driverMetric{Value: float64(v.Value), Unit: v.Unit}
	}
	d.Correct = d.Failed == 0
	return d
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printWorkload writes the human-readable report of one workload.
func printWorkload(out io.Writer, w *workloadReport) {
	fmt.Fprintf(out, "\n== %s == %s\n", w.Name, w.Why)
	fmt.Fprintf(out, "runs %d of %d passes, traced passes %d, attempted %d, failed %d, failed_share %g\n",
		w.Runs, w.Passes, w.TracedPasses, w.Attempted, w.Failed, w.FailedShare)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	if len(w.EndToEnd) > 0 {
		fmt.Fprintln(tw, "end-to-end\tunit\tvalue\tq1\tq3\ttail\truns\tbound")
		for _, v := range w.EndToEnd {
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%.4f\tp%d %.4f\t%d\t%.0f%%\n",
				v.Name, v.Unit, v.Value, v.Dist.Q1, v.Dist.Q3, v.Dist.TailP, v.Dist.Tail, v.Dist.N, v.Bound*100)
		}
		tw.Flush()
	}
	if len(w.PerLayer) == 0 {
		return
	}
	fmt.Fprintln(out)
	fmt.Fprint(tw, "per-layer\tunit\tvalue")
	if len(w.Programs) > 1 {
		for _, p := range w.Programs {
			fmt.Fprintf(tw, "\t%s", p)
		}
	}
	fmt.Fprintln(tw)
	for _, v := range w.PerLayer {
		fmt.Fprintf(tw, "%s\t%s\t%.6g", v.Name, v.Unit, v.Value)
		if len(w.Programs) > 1 {
			for _, p := range w.Programs {
				fmt.Fprintf(tw, "\t%.6g", v.PerProgram[p])
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	a := w.Accounting
	fmt.Fprintf(out, "\naccounting of the traced full_t1 cell (ms)\n")
	fmt.Fprintf(tw, "  base_t1\t%.3f\n  core.place busy\t%.3f\n  detect busy\t%.3f\n  sched.self\t%.3f\t(untraced full_t1 less the three above)\n",
		a.BaseT1Ms, a.CorePlaceBusyMs, a.DetectBusyMs, a.SchedSelfMs)
	fmt.Fprintf(tw, "  = untraced full_t1\t%.3f\n  unexplained\t%.3f\t(%.1f%% of the traced wall)\n  = traced full_t1\t%.3f\n",
		a.FullT1Ms, a.UnexplainedMs, 100*a.UnexplainedMs/a.TracedFullT1Ms, a.TracedFullT1Ms)
	tw.Flush()
}
