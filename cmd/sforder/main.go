// Command sforder runs the paper's benchmarks under the three race
// detectors and regenerates the evaluation tables:
//
//	sforder -table fig3                # benchmark characteristics
//	sforder -table fig4 -workers 4     # base/reach/full timing grid, shipping history
//	sforder -table fig4 -fastpath=false  # the same grid on the paper's locked history
//	sforder -table fig5                # reachability memory comparison
//	sforder -table abl                 # reader-policy ablation
//	sforder -bench sw -detector sforder -mode full -workers 2
//
// Observability flags for single-benchmark runs:
//
//	sforder -bench sw -detector sforder -stats            # registry dump
//	sforder -bench sw -detector sforder -trace out.json   # Chrome trace
//	sforder -bench sw -detector sforder -http :6060 ...   # expvar + pprof
//
// -scale selects preset input sizes (test, bench, large); see
// EXPERIMENTS.md for how each table corresponds to the paper's figures.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/engine"
	"sforder/internal/harness"
	"sforder/internal/obsv"
	"sforder/internal/replay"
	"sforder/internal/workload"
)

func main() {
	var (
		table         = flag.String("table", "", "table to regenerate: fig3, fig4, fig5, abl")
		scale         = flag.String("scale", "bench", "input scale: test, bench, large")
		workers       = flag.Int("workers", harness.DefaultWorkers(), "worker count for the TP columns")
		repeats       = flag.Int("repeats", 1, "best-of-N timing repeats")
		bench         = flag.String("bench", "", "run one benchmark: mm, sort, sw, hw, ferret, spine, pipeline, ksweep")
		detector      = flag.String("detector", "sforder", "detector for -bench: sforder, forder, multibags")
		mode          = flag.String("mode", "full", "mode for -bench: base, reach, full")
		policy        = flag.String("policy", "all", "reader policy for full mode: all, lr")
		jsonOut       = flag.Bool("json", false, "emit the table as JSON instead of text")
		stats         = flag.Bool("stats", false, "with -bench: print the stats-registry snapshot after the run")
		traceOut      = flag.String("trace", "", "with -bench: write a Chrome trace-event JSON timeline to this file")
		httpAddr      = flag.String("http", "", "serve /stats, /debug/vars (expvar) and /debug/pprof on this address (e.g. :6060)")
		dedup         = flag.Bool("dedup", false, "with -bench: report at most one race record per address")
		fastpath      = flag.Bool("fastpath", true, "use the lock-avoiding access history in full mode (what ships); -fastpath=false is the paper's locked history (sforder.Config.LockedHistory, ABL7)")
		reachSub      = flag.String("reach", "depa", "with -bench and -table: SF-Order reachability substrate: depa (prefix-sharing fork-path cords, ABL10/11) or om (the paper's English/Hebrew lists)")
		extras        = flag.Bool("extras", false, "append the adversarial extras (spine, pipeline, ksweep) to -table runs")
		record        = flag.String("record", "", "with -bench: capture the run (dag events + access stream) to this sftrace file for offline -replay")
		replayIn      = flag.String("replay", "", "replay a capture recorded with -record: stream it through the dag rebuild and detection, sharded by shadow page, in memory constant in its length")
		replayWorkers = flag.Int("replayworkers", 0, "with -replay: number of parallel detection shards (0 = GOMAXPROCS)")
	)
	flag.Parse()

	sc, ok := map[string]workload.Scale{
		"test":  workload.ScaleTest,
		"bench": workload.ScaleBench,
		"large": workload.ScaleLarge,
	}[*scale]
	if !ok {
		fatalf("unknown scale %q", *scale)
	}
	benches := workload.All(sc)
	if *extras {
		benches = append(benches, workload.Extras(sc)...)
	}

	// The HTTP endpoint outlives a single run: the expvar page always
	// reflects the most recently attached registry.
	var reg *obsv.Registry
	if *stats || *httpAddr != "" {
		reg = obsv.NewRegistry()
	}
	if *httpAddr != "" {
		go func() {
			if err := obsv.Serve(*httpAddr, reg); err != nil {
				fmt.Fprintf(os.Stderr, "sforder: -http: %v\n", err)
			}
		}()
	}

	switch {
	case *replayIn != "":
		runReplay(*replayIn, *replayWorkers, *dedup, *stats, reg)
	case *table != "":
		runTable(*table, benches, runConfig(*detector, *mode, *policy, *reachSub, *workers, *fastpath, *dedup),
			*workers, *repeats, *scale, *jsonOut)
	case *bench != "":
		runOne(*bench, sc, runConfig(*detector, *mode, *policy, *reachSub, *workers, *fastpath, *dedup), oneOpts{
			reg:       reg,
			stats:     *stats,
			traceOut:  *traceOut,
			recordOut: *record,
			block:     *httpAddr != "",
		})
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runReplay streams an sftrace capture through offline detection: the
// dag is rebuilt on DePa labels while the access blocks are routed by
// shadow page across the requested shards (a location lives in one page,
// a page in one shard) and detected in parallel (ABL12).
func runReplay(path string, workers int, dedup, stats bool, reg *obsv.Registry) {
	f, err := os.Open(path)
	check(err)
	res, err := replay.RunStream(f, replay.Options{
		Workers:     workers,
		DedupByAddr: dedup,
		Stats:       reg,
	})
	check(f.Close())
	if err != nil {
		fatalf("replay: %s: %v", path, err)
	}
	fmt.Printf("%s  replay workers=%d\n", path, res.Shards)
	fmt.Printf("  strands    %d\n", res.Strands)
	fmt.Printf("  futures    %d\n", res.Futures-1)
	fmt.Printf("  events     %d\n", res.Events)
	fmt.Printf("  accesses   %d (max shard %d)\n", res.Entries, res.MaxShardEntries)
	fmt.Printf("  queries    %d\n", res.Queries)
	fmt.Printf("  races      %d (%d racy addrs)\n", res.RaceCount, len(res.RacyAddrs))
	// Per-phase breakdown: rebuild is the loader's time apart from handing
	// blocks out, inside detect, the pipeline wall (the phases overlap).
	fmt.Printf("  rebuild    %v\n", res.Rebuild)
	fmt.Printf("  detect     %v\n", res.Detect)
	fmt.Printf("  merge      %v\n", res.Merge)
	fmt.Printf("  stream     peak %d blocks / %d bytes in flight\n", res.StreamPeakBlocks, res.StreamPeakBytes)
	fmt.Printf("  reach mem  %d bytes\n", res.ReachMemBytes)
	for _, r := range res.Races {
		fmt.Printf("  race: %v\n", r)
	}
	if stats {
		fmt.Println("  stats registry:")
		reg.WriteText(os.Stdout)
	}
}

// runConfig builds the one engine configuration -bench runs and every
// -table starts from: a table sweeps what it measures (detector, level,
// workers, and the policy for abl) and takes the rest from it. -mode base
// is NoDetector and -mode reach ReachabilityOnly.
func runConfig(detector, mode, policy, reach string, workers int, fastpath, dedup bool) engine.Config {
	det, err := engine.ParseDetector(detector)
	check(err)
	sub, err := core.ParseSubstrate(reach)
	check(err)
	pol, ok := map[string]detect.ReaderPolicy{
		"all": detect.ReadersAll,
		"lr":  detect.ReadersLR,
	}[policy]
	if !ok {
		fatalf("unknown policy %q", policy)
	}
	cfg := engine.Config{
		Detector:      det,
		Reach:         sub,
		Workers:       workers,
		Policy:        pol,
		DedupByAddr:   dedup,
		LockedHistory: !fastpath,
	}
	switch mode {
	case "base":
		cfg.Detector = engine.NoDetector
	case "reach":
		cfg.ReachabilityOnly = true
	case "full":
	default:
		fatalf("unknown mode %q", mode)
	}
	return cfg
}

// oneOpts carries the observability outputs of a -bench run.
type oneOpts struct {
	reg       *obsv.Registry
	stats     bool
	traceOut  string
	recordOut string
	block     bool // keep serving -http after the run completes
}

func runTable(table string, benches []*workload.Benchmark, base engine.Config, workers, repeats int, scale string, jsonOut bool) {
	report := &harness.Report{Env: harness.Env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Repeats:    repeats,
		Scale:      scale,
	}}
	switch table {
	case "fig3":
		rows, err := harness.Fig3(benches, base)
		check(err)
		if jsonOut {
			report.Fig3 = rows
			break
		}
		fmt.Println("Figure 3: benchmark execution characteristics")
		harness.PrintFig3(os.Stdout, rows)
	case "fig4":
		rows, err := harness.Fig4(benches, workers, repeats, base)
		check(err)
		if jsonOut {
			report.Fig4 = rows
			break
		}
		history := "shipping"
		if base.LockedHistory {
			history = "locked"
		}
		fmt.Printf("Figure 4: execution times (P=%d workers, GOMAXPROCS=%d, best of %d, %s history)\n",
			workers, runtime.GOMAXPROCS(0), repeats, history)
		harness.PrintFig4(os.Stdout, rows)
	case "fig5":
		rows, err := harness.Fig5(benches, base)
		check(err)
		if jsonOut {
			report.Fig5 = rows
			break
		}
		fmt.Println("Figure 5: reachability-maintenance memory")
		harness.PrintFig5(os.Stdout, rows)
	case "abl":
		rows, err := harness.AblationReaderPolicy(benches, repeats, base)
		check(err)
		if jsonOut {
			report.Ablation = rows
			break
		}
		fmt.Println("Ablation: SF-Order access-history reader policy (all vs lr)")
		harness.PrintAblation(os.Stdout, rows)
	default:
		fatalf("unknown table %q (want fig3, fig4, fig5, abl)", table)
	}
	if jsonOut {
		check(report.WriteJSON(os.Stdout))
	}
}

func runOne(name string, sc workload.Scale, cfg engine.Config, obs oneOpts) {
	b := workload.ByName(name, sc)
	if b == nil {
		fatalf("unknown benchmark %q", name)
	}
	cfg.Stats = obs.reg
	var files []*os.File
	for _, out := range []struct {
		path string
		to   *io.Writer
	}{{obs.traceOut, &cfg.Trace}, {obs.recordOut, &cfg.Record}} {
		if out.path != "" {
			f, err := os.Create(out.path)
			check(err)
			files = append(files, f)
			*out.to = f
		}
	}
	res, err := harness.Run(b, cfg)
	for _, f := range files {
		check(f.Close())
	}
	check(err)
	fmt.Printf("%s  detector=%v mode=%s workers=%d\n", b, cfg.Detector, harness.Level(cfg), cfg.Workers)
	fmt.Printf("  time      %v\n", res.Elapsed)
	fmt.Printf("  strands   %d\n", res.Counts.Strands)
	fmt.Printf("  futures   %d\n", res.Counts.Futures-1)
	fmt.Printf("  queries   %d\n", res.Queries)
	fmt.Printf("  races     %d\n", res.RaceCount)
	fmt.Printf("  reach mem %d bytes\n", res.ReachMem)
	if harness.Level(cfg) == "full" {
		fmt.Printf("  hist mem  %d bytes\n", res.HistMem)
	}
	if obs.traceOut != "" {
		fmt.Printf("  trace     %s (chrome://tracing, https://ui.perfetto.dev)\n", obs.traceOut)
	}
	if obs.recordOut != "" {
		fmt.Printf("  record    %s (replay with -replay=%s)\n", obs.recordOut, obs.recordOut)
	}
	if obs.stats {
		fmt.Println("  stats registry:")
		obs.reg.WriteText(os.Stdout)
	}
	if obs.block {
		fmt.Println("serving -http; press Ctrl-C to exit")
		select {}
	}
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sforder: "+format+"\n", args...)
	os.Exit(1)
}
