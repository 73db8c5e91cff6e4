package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"sforder/internal/detect"
	"sforder/internal/engine"
	"sforder/internal/obsv"
	"sforder/internal/workload"
)

// Fig3Row is one row of the Figure 3 characteristics table.
type Fig3Row struct {
	Bench   string
	N, B    int
	Reads   uint64
	Writes  uint64
	Queries uint64
	Futures uint64
	Nodes   uint64
}

// Fig3 characterizes every benchmark: one serial full-detection run with
// a stats registry attached gathers all columns at once — every column
// is read from the registry snapshot rather than from per-component
// getters, so the table and the -stats/-http surfaces can never
// disagree. Every other field comes from base (the locked history, for
// one, moves the queries column).
func Fig3(benches []*workload.Benchmark, base engine.Config) ([]Fig3Row, error) {
	var rows []Fig3Row
	for _, b := range benches {
		cfg := base
		cfg.Detector, cfg.ReachabilityOnly, cfg.Serial, cfg.Stats = engine.SFOrder, false, true, obsv.NewRegistry()
		res, err := Run(b, cfg)
		if err != nil {
			return nil, err
		}
		s := res.Stats
		rows = append(rows, Fig3Row{
			Bench:   b.Name,
			N:       b.N,
			B:       b.B,
			Reads:   uint64(s["sched.reads"]),
			Writes:  uint64(s["sched.writes"]),
			Queries: uint64(s["reach.queries"]),
			Futures: uint64(s["sched.futures"]) - 1, // exclude the root, as the paper counts created futures
			Nodes:   uint64(s["sched.strands"]),
		})
	}
	return rows, nil
}

// PrintFig3 renders the rows like the paper's Figure 3.
func PrintFig3(w io.Writer, rows []Fig3Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\tN\tB\t# reads\t# writes\t# queries\t# futures\t# nodes")
	for _, r := range rows {
		base := ""
		if r.B > 0 {
			base = fmt.Sprint(r.B)
		} else {
			base = "-"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%d\t%d\n",
			r.Bench, r.N, base, sci(r.Reads), sci(r.Writes), sci(r.Queries), r.Futures, r.Nodes)
	}
	tw.Flush()
}

// sci renders large counts in the paper's m.mm × 10^e style.
func sci(v uint64) string {
	if v < 100000 {
		return fmt.Sprint(v)
	}
	f := float64(v)
	e := 0
	for f >= 10 {
		f /= 10
		e++
	}
	return fmt.Sprintf("%.2fe%d", f, e)
}

// Fig4Cell is one timing measurement of the Figure 4 grid.
type Fig4Cell struct {
	Seconds  float64
	Overhead float64 // vs the base run at the same worker count
	Scale    float64 // T1 of the same configuration / this time
}

// Fig4Row is one benchmark's two lines (reach and full) of Figure 4.
type Fig4Row struct {
	Bench    string
	Workers  int // the "TP" worker count used
	BaseT1   float64
	BaseTP   Fig4Cell
	ByConfig map[string]Fig4Cell // keys like "MultiBags/reach/T1", "SF-Order/full/TP"
}

// fig4Levels are Figure 4's two lines per benchmark, as Level names them.
var fig4Levels = []string{"reach", "full"}

func key(d engine.Detector, level string, tp bool) string {
	suffix := "T1"
	if tp {
		suffix = "TP"
	}
	return fmt.Sprintf("%s/%s/%s", d, level, suffix)
}

// Fig4 measures the full grid for the given benchmarks. repeats selects
// best-of-n timing. MultiBags runs only at T1 (it is sequential, which
// is the point of the comparison); the parallel detectors run at one
// worker and at workers workers. Every other field — the history, the
// substrate, the reader policy — comes from base: the zero Config
// measures what ships, LockedHistory the paper's lock-per-access history
// its shape checks are made against.
func Fig4(benches []*workload.Benchmark, workers, repeats int, base engine.Config) ([]Fig4Row, error) {
	var rows []Fig4Row
	for _, b := range benches {
		row := Fig4Row{Bench: b.Name, Workers: workers, ByConfig: map[string]Fig4Cell{}}
		// seconds is the best-of-repeats wall of one cell.
		seconds := func(det engine.Detector, reachOnly bool, w int) (float64, error) {
			r, err := RunBest(b, fig4Config(base, det, reachOnly, w), repeats)
			if err != nil {
				return 0, err
			}
			return r.Elapsed.Seconds(), nil
		}

		var err error
		if row.BaseT1, err = seconds(engine.NoDetector, false, 0); err != nil {
			return nil, err
		}
		baseTP, err := seconds(engine.NoDetector, false, workers)
		if err != nil {
			return nil, err
		}
		row.BaseTP = Fig4Cell{Seconds: baseTP, Scale: row.BaseT1 / baseTP}

		for _, level := range fig4Levels {
			reachOnly := level == "reach"
			// MultiBags: serial executor only.
			mb, err := seconds(engine.MultiBags, reachOnly, 0)
			if err != nil {
				return nil, err
			}
			row.ByConfig[key(engine.MultiBags, level, false)] = Fig4Cell{Seconds: mb, Overhead: mb / row.BaseT1}
			for _, det := range []engine.Detector{engine.FOrder, engine.SFOrder} {
				t1, err := seconds(det, reachOnly, 1)
				if err != nil {
					return nil, err
				}
				row.ByConfig[key(det, level, false)] = Fig4Cell{Seconds: t1, Overhead: t1 / row.BaseT1}
				tp, err := seconds(det, reachOnly, workers)
				if err != nil {
					return nil, err
				}
				row.ByConfig[key(det, level, true)] = Fig4Cell{Seconds: tp, Overhead: tp / baseTP, Scale: t1 / tp}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// fig4Config is one cell's configuration: det at a level on w workers (0
// selects the serial executor), the rest from base. The reader policy
// governs SF-Order's history only; F-Order and MultiBags keep all readers.
func fig4Config(base engine.Config, det engine.Detector, reachOnly bool, w int) engine.Config {
	cfg := base
	cfg.Detector, cfg.ReachabilityOnly, cfg.Workers, cfg.Serial = det, reachOnly, w, w == 0
	if det != engine.SFOrder {
		cfg.Policy = detect.ReadersAll
	}
	return cfg
}

// PrintFig4 renders the grid like the paper's Figure 4 (times in
// seconds; parenthesized overhead vs base; bracketed scalability vs the
// same configuration's T1).
func PrintFig4(w io.Writer, rows []Fig4Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\tbase(T1)\tbase(TP)\tconfig\tMultiBags(T1)\tF-Order(T1)\tSF-Order(T1)\tF-Order(TP)\tSF-Order(TP)")
	for _, r := range rows {
		for i, level := range fig4Levels {
			b1, bp := "", ""
			if i == 0 {
				b1 = fmt.Sprintf("%.3f", r.BaseT1)
				bp = fmt.Sprintf("%.3f [%.2fx]", r.BaseTP.Seconds, r.BaseTP.Scale)
			}
			name := ""
			if i == 0 {
				name = r.Bench
			}
			mb := r.ByConfig[key(engine.MultiBags, level, false)]
			f1 := r.ByConfig[key(engine.FOrder, level, false)]
			s1 := r.ByConfig[key(engine.SFOrder, level, false)]
			fp := r.ByConfig[key(engine.FOrder, level, true)]
			sp := r.ByConfig[key(engine.SFOrder, level, true)]
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.3f (%.2fx)\t%.3f (%.2fx)\t%.3f (%.2fx)\t%.3f [%.2fx]\t%.3f [%.2fx]\n",
				name, b1, bp, level,
				mb.Seconds, mb.Overhead,
				f1.Seconds, f1.Overhead,
				s1.Seconds, s1.Overhead,
				fp.Seconds, fp.Scale,
				sp.Seconds, sp.Scale)
		}
	}
	tw.Flush()
}

// Fig5Row is one row of the Figure 5 memory table.
type Fig5Row struct {
	Bench        string
	FOrderMB     float64
	SFOrderMB    float64
	RatioSFoverF float64
}

// Fig5 measures reachability-maintenance memory under the reach
// configuration (serial runs keep the measurement deterministic), with
// every other field — SF-Order's substrate, for one — from base. The
// memory column is read from each run's registry snapshot
// (reach.mem_bytes).
func Fig5(benches []*workload.Benchmark, base engine.Config) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, b := range benches {
		var mem [2]int64 // F-Order, SF-Order
		for i, det := range []engine.Detector{engine.FOrder, engine.SFOrder} {
			cfg := base
			cfg.Detector, cfg.ReachabilityOnly, cfg.Serial, cfg.Stats = det, true, true, obsv.NewRegistry()
			res, err := Run(b, cfg)
			if err != nil {
				return nil, err
			}
			mem[i] = res.Stats["reach.mem_bytes"]
		}
		foMem, sfMem := mem[0], mem[1]
		const mb = 1 << 20
		row := Fig5Row{
			Bench:     b.Name,
			FOrderMB:  float64(foMem) / mb,
			SFOrderMB: float64(sfMem) / mb,
		}
		if foMem > 0 {
			row.RatioSFoverF = float64(sfMem) / float64(foMem)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig5 renders the memory table (MB; the paper reports GB at its
// much larger inputs).
func PrintFig5(w io.Writer, rows []Fig5Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\tF-Order (MB)\tSF-Order (MB)\tSF/F ratio")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.4f\n", r.Bench, r.FOrderMB, r.SFOrderMB, r.RatioSFoverF)
	}
	tw.Flush()
}

// Ablation compares SF-Order's ReadersAll (the paper's shipped choice)
// with ReadersLR (the 2k theory bound) on one benchmark, full detection.
type AblationRow struct {
	Bench      string
	AllSeconds float64
	LRSeconds  float64
	AllHistMB  float64
	LRHistMB   float64
}

// AblationReaderPolicy measures ABL1 from DESIGN.md: serial SF-Order full
// detection under each policy, every other field from base.
func AblationReaderPolicy(benches []*workload.Benchmark, repeats int, base engine.Config) ([]AblationRow, error) {
	var rows []AblationRow
	for _, b := range benches {
		var res [2]*engine.Result // ReadersAll, ReadersLR
		for i, policy := range []detect.ReaderPolicy{detect.ReadersAll, detect.ReadersLR} {
			cfg := base
			cfg.Detector, cfg.ReachabilityOnly, cfg.Serial, cfg.Policy = engine.SFOrder, false, true, policy
			var err error
			res[i], err = RunBest(b, cfg, repeats)
			if err != nil {
				return nil, err
			}
		}
		all, lr := res[0], res[1]
		const mb = 1 << 20
		rows = append(rows, AblationRow{
			Bench:      b.Name,
			AllSeconds: all.Elapsed.Seconds(),
			LRSeconds:  lr.Elapsed.Seconds(),
			AllHistMB:  float64(all.HistMem) / mb,
			LRHistMB:   float64(lr.HistMem) / mb,
		})
	}
	return rows, nil
}

// PrintAblation renders the reader-policy ablation.
func PrintAblation(w io.Writer, rows []AblationRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\tall: time(s)\tlr: time(s)\tall: hist MB\tlr: hist MB")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\n", r.Bench, r.AllSeconds, r.LRSeconds, r.AllHistMB, r.LRHistMB)
	}
	tw.Flush()
}
