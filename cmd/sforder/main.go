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
	"os"
	"runtime"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/engine"
	"sforder/internal/harness"
	"sforder/internal/obsv"
	"sforder/internal/replay"
	"sforder/internal/trace"
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
		reachSub      = flag.String("reach", "om", "with -bench, and with -replay for the rebuild: SF-Order reachability substrate: om (English/Hebrew lists) or depa (prefix-sharing fork-path cords, ABL10/11)")
		extras        = flag.Bool("extras", false, "append the adversarial extras (spine, pipeline, ksweep) to -table runs")
		record        = flag.String("record", "", "with -bench: capture the run (dag events + access stream) to this sftrace file for offline -replay")
		replayIn      = flag.String("replay", "", "replay a capture recorded with -record: rebuild the dag and re-run detection offline, sharded by shadow page")
		replayWorkers = flag.Int("replayworkers", 0, "with -replay: number of parallel detection shards (0 = GOMAXPROCS)")
		stream        = flag.Bool("stream", false, "with -replay: stream the capture through a bounded pipeline — detection starts while the file is still being decoded, and resident memory stays constant in trace length")
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
		runReplay(*replayIn, *replayWorkers, *stream, *reachSub, *dedup, *stats, reg)
	case *table != "":
		runTable(*table, benches, *workers, *repeats, *scale, *jsonOut, !*fastpath)
	case *bench != "":
		runOne(*bench, sc, *detector, *mode, *policy, *workers, oneOpts{
			reg:       reg,
			stats:     *stats,
			traceOut:  *traceOut,
			recordOut: *record,
			dedup:     *dedup,
			fastpath:  *fastpath,
			reach:     *reachSub,
			block:     *httpAddr != "",
		})
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runReplay loads an sftrace capture and re-runs detection offline:
// the dag is rebuilt on the selected reachability substrate, then the
// access blocks are routed by shadow page across the requested shards (a
// location lives in one page, a page in one shard) and detected in
// parallel (ABL12).
func runReplay(path string, workers int, stream bool, reachName string, dedup, stats bool, reg *obsv.Registry) {
	sub, err := core.ParseSubstrate(reachName)
	if err != nil {
		fatalf("%v", err)
	}
	opts := replay.Options{
		Workers:     workers,
		Reach:       sub,
		DedupByAddr: dedup,
		Stats:       reg,
	}
	f, err := os.Open(path)
	check(err)
	var res *replay.Result
	if stream {
		res, err = replay.RunStream(f, opts)
		check(f.Close())
	} else {
		var c *trace.Capture
		c, err = trace.Load(f)
		check(f.Close())
		if err == nil {
			res, err = replay.Run(c, opts)
		}
	}
	if err != nil {
		fatalf("replay: %s: %v", path, err)
	}
	mode := "barriered"
	if res.Streamed {
		mode = "streamed"
	}
	fmt.Printf("%s  replay workers=%d reach=%s mode=%s\n", path, res.Shards, sub, mode)
	fmt.Printf("  strands    %d\n", res.Strands)
	fmt.Printf("  futures    %d\n", res.Futures-1)
	fmt.Printf("  events     %d\n", res.Events)
	fmt.Printf("  accesses   %d (max shard %d)\n", res.Entries, res.MaxShardEntries)
	fmt.Printf("  queries    %d\n", res.Queries)
	fmt.Printf("  races      %d (%d racy addrs)\n", res.RaceCount, len(res.RacyAddrs))
	// Per-phase breakdown. Under streaming, rebuild time is the loader's
	// structure-event share and detect is the full pipeline wall (the
	// phases overlap); barriered runs report disjoint phases.
	fmt.Printf("  rebuild    %v\n", res.Rebuild)
	fmt.Printf("  detect     %v\n", res.Detect)
	fmt.Printf("  merge      %v\n", res.Merge)
	if res.Streamed {
		fmt.Printf("  stream     peak %d blocks / %d bytes in flight\n", res.StreamPeakBlocks, res.StreamPeakBytes)
	}
	fmt.Printf("  reach mem  %d bytes\n", res.ReachMemBytes)
	for _, r := range res.Races {
		fmt.Printf("  race: %v\n", r)
	}
	if stats {
		fmt.Println("  stats registry:")
		reg.WriteText(os.Stdout)
	}
}

// oneOpts carries the observability knobs of a -bench run.
type oneOpts struct {
	reg       *obsv.Registry
	stats     bool
	traceOut  string
	recordOut string
	dedup     bool
	fastpath  bool
	reach     string
	block     bool // keep serving -http after the run completes
}

func runTable(table string, benches []*workload.Benchmark, workers, repeats int, scale string, jsonOut, locked bool) {
	report := &harness.Report{Env: harness.Env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Repeats:    repeats,
		Scale:      scale,
	}}
	switch table {
	case "fig3":
		rows, err := harness.Fig3(benches, locked)
		check(err)
		if jsonOut {
			report.Fig3 = rows
			break
		}
		fmt.Println("Figure 3: benchmark execution characteristics")
		harness.PrintFig3(os.Stdout, rows)
	case "fig4":
		rows, err := harness.Fig4(benches, workers, repeats, locked)
		check(err)
		if jsonOut {
			report.Fig4 = rows
			break
		}
		history := "shipping"
		if locked {
			history = "locked"
		}
		fmt.Printf("Figure 4: execution times (P=%d workers, GOMAXPROCS=%d, best of %d, %s history)\n",
			workers, runtime.GOMAXPROCS(0), repeats, history)
		harness.PrintFig4(os.Stdout, rows)
	case "fig5":
		rows, err := harness.Fig5(benches)
		check(err)
		if jsonOut {
			report.Fig5 = rows
			break
		}
		fmt.Println("Figure 5: reachability-maintenance memory")
		harness.PrintFig5(os.Stdout, rows)
	case "abl":
		rows, err := harness.AblationReaderPolicy(benches, repeats, locked)
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

func runOne(name string, sc workload.Scale, detector, mode, policy string, workers int, obs oneOpts) {
	b := workload.ByName(name, sc)
	if b == nil {
		fatalf("unknown benchmark %q", name)
	}
	det, ok := map[string]engine.Detector{
		"sforder":   engine.SFOrder,
		"forder":    engine.FOrder,
		"multibags": engine.MultiBags,
	}[detector]
	if !ok {
		fatalf("unknown detector %q", detector)
	}
	md, ok := map[string]harness.Mode{
		"base":  harness.Base,
		"reach": harness.Reach,
		"full":  harness.Full,
	}[mode]
	if !ok {
		fatalf("unknown mode %q", mode)
	}
	pol, ok := map[string]detect.ReaderPolicy{
		"all": detect.ReadersAll,
		"lr":  detect.ReadersLR,
	}[policy]
	if !ok {
		fatalf("unknown policy %q", policy)
	}
	sub, err := core.ParseSubstrate(obs.reach)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := harness.Config{Mode: md, Config: engine.Config{
		Detector:      det,
		Workers:       workers,
		Reach:         sub,
		Serial:        det == engine.MultiBags,
		Policy:        pol,
		DedupByAddr:   obs.dedup,
		LockedHistory: !obs.fastpath,
		Stats:         obs.reg,
	}}
	var traceFile *os.File
	if obs.traceOut != "" {
		f, err := os.Create(obs.traceOut)
		check(err)
		traceFile = f
		cfg.Trace = obsv.NewTraceWriter(f)
	}
	var recordFile *os.File
	if obs.recordOut != "" {
		f, err := os.Create(obs.recordOut)
		check(err)
		recordFile = f
		cfg.Record = f
	}
	res, err := harness.Run(b, cfg)
	if cfg.Trace != nil {
		check(cfg.Trace.Close())
		check(traceFile.Close())
	}
	if recordFile != nil {
		check(recordFile.Close())
	}
	check(err)
	fmt.Printf("%s  detector=%v mode=%v workers=%d\n", b, det, md, workers)
	fmt.Printf("  time      %v\n", res.Elapsed)
	fmt.Printf("  strands   %d\n", res.Counts.Strands)
	fmt.Printf("  futures   %d\n", res.Counts.Futures-1)
	fmt.Printf("  queries   %d\n", res.Queries)
	fmt.Printf("  races     %d\n", res.RaceCount)
	fmt.Printf("  reach mem %d bytes\n", res.ReachMem)
	if md == harness.Full {
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
