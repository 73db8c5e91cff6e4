package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// spread is the run-to-run spread of a metric: the distance between
// the quartiles of its run values as a share of their median. Fewer
// than two runs have none to show: NaN.
func spread(d *dist) float64 {
	if d == nil || d.N < 2 {
		return math.NaN()
	}
	return float64(d.Q3-d.Q1) / math.Abs(float64(d.Median))
}

// compareReports prints one row per (end-to-end metric, workload) —
// both medians, the move from a to b, the bound, and a verdict — and
// returns how many rows are worse and how many unresolved. Every
// end-to-end metric is lower-is-better, so a positive move is the bad
// direction. A row is unresolved when either run's own spread is wider
// than the bound: then the bound cannot be checked, and saying
// "unchanged" would be a guess. setup_s is judged on its medians alone,
// as the driver judges it: one set-up is a second or two at the cold
// start of a process and spreads up to 30% on a quiet box. NaN fails
// every comparison, so a missing value or spread is never ok.
func compareReports(out io.Writer, a, b *report) (worse, unresolved int) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tdelta\tbound\tspread\tverdict")
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t-\tmissing in b\n", wa.Name)
			unresolved++
			continue
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(tw, "%s\tfailed_share\tratio\t%g\t%g\t-\t0\t-\tworse\n", wa.Name, wa.FailedShare, wb.FailedShare)
			worse++
		}
		for _, ma := range wa.EndToEnd {
			var mb *metricValue
			for i := range wb.EndToEnd {
				if wb.EndToEnd[i].Name == ma.Name {
					mb = &wb.EndToEnd[i]
				}
			}
			if mb == nil {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t-\t-\t-\t-\tmissing in b\n", wa.Name, ma.Name, ma.Unit, ma.Value)
				unresolved++
				continue
			}
			delta := float64(mb.Value-ma.Value) / float64(ma.Value)
			sp := math.Max(spread(ma.Dist), spread(mb.Dist))
			verdict := "ok"
			switch {
			case ma.Name != "setup_s" && !(sp <= ma.Bound):
				verdict = "unresolved"
				unresolved++
			case !(delta <= ma.Bound):
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.2f%%\t%.0f%%\t%.2f%%\t%s\n",
				wa.Name, ma.Name, ma.Unit, ma.Value, mb.Value, delta*100, ma.Bound*100, sp*100, verdict)
		}
	}
	tw.Flush()
	return worse, unresolved
}
