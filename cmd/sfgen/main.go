// Command sfgen generates random structured-future programs, records
// each one's dag in a serial run, validates it against the
// structured-future restrictions, and cross-checks the racy locations
// the chosen detector reports — assembled by engine.Run in its shipping
// configuration — against the exhaustive oracle: a standalone fuzzing
// tool for the detector stack.
//
//	sfgen -seeds 100                    # fuzz 100 random programs
//	sfgen -seed 7 -dot                  # print one program's dag as DOT
//	sfgen -seed 7 -detector forder -v   # detail one run
//	sfgen -seed 7 -save s7.sft          # keep the detector run's capture
//	sfgen -load s7.sft                  # replay a capture against the oracle
//
// -load takes any capture within the oracle's caps, also sforder -record's.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"slices"

	"sforder/internal/dag"
	"sforder/internal/engine"
	"sforder/internal/oracle"
	"sforder/internal/progen"
	"sforder/internal/replay"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "program seed (with -seeds, the first seed)")
		seeds    = flag.Int("seeds", 1, "number of consecutive seeds to fuzz")
		depth    = flag.Int("depth", 4, "max nesting depth")
		ops      = flag.Int("ops", 8, "max ops per block")
		addrs    = flag.Int("addrs", 8, "shadow address space size")
		detector = flag.String("detector", "sforder", "sforder, forder, multibags")
		dot      = flag.Bool("dot", false, "print the recorded dag as Graphviz DOT")
		save     = flag.String("save", "", "write the seed's sftrace capture to this file (one seed only)")
		load     = flag.String("load", "", "check a capture's replay against the oracle and exit")
		verbose  = flag.Bool("v", false, "per-seed detail")
	)
	flag.Parse()

	if *load != "" {
		checkSaved(*load)
		return
	}
	if *save != "" && *seeds > 1 {
		fmt.Fprintln(os.Stderr, "sfgen: -save keeps one seed's capture; it takes no -seeds above 1")
		os.Exit(2)
	}
	d, err := engine.ParseDetector(*detector)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfgen: %v\n", err)
		os.Exit(2)
	}

	bad := 0
	for s := *seed; s < *seed+int64(*seeds); s++ {
		if !fuzzOne(s, *depth, *ops, *addrs, d, *dot, *save, *verbose) {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "sfgen: %d/%d seeds FAILED\n", bad, *seeds)
		os.Exit(1)
	}
	fmt.Printf("sfgen: %d seeds ok\n", *seeds)
}

// checkSaved loads a capture, prints its dag's shape, and fails unless
// replay of the loaded capture and of its bytes both equal the oracle over
// it.
func checkSaved(path string) {
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "sfgen: %s: "+format+"\n", append([]any{path}, args...)...)
		os.Exit(1)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	c, err := trace.Load(bytes.NewReader(raw))
	if err != nil {
		fail("%v", err)
	}
	want, g, err := replay.Oracle(c)
	if err != nil {
		fail("%v", err)
	}
	loaded, err := replay.Run(c, replay.Options{})
	if err != nil {
		fail("replay: %v", err)
	}
	streamed, err := replay.RunStream(bytes.NewReader(raw), replay.Options{})
	if err != nil {
		fail("streamed replay: %v", err)
	}
	if !slices.Equal(loaded.RacyAddrs, want) || !slices.Equal(streamed.RacyAddrs, want) {
		fail("replay %v, streamed %v != oracle %v", loaded.RacyAddrs, streamed.RacyAddrs, want)
	}
	work, span := g.WorkSpan()
	fmt.Printf("sfgen: %s ok — %d nodes, %d futures, work %d, span %d, %d entries, %d racy addresses\n",
		path, g.NumNodes(), g.NumFutures()-1, work, span, c.Entries, len(want))
}

func fuzzOne(seed int64, depth, ops, addrs int, d engine.Detector, dot bool, save string, verbose bool) bool {
	p := progen.New(progen.Config{Seed: seed, MaxDepth: depth, MaxOps: ops, Addrs: addrs})

	// The oracle's verdict comes from a serial run that records the dag
	// and logs every access.
	rec := dag.NewRecorder()
	log := oracle.NewLogger()
	if _, err := sched.Run(sched.Options{Serial: true, Tracer: rec, Checker: log}, p.Main()); err != nil {
		fmt.Fprintf(os.Stderr, "seed %d: oracle run failed: %v\n", seed, err)
		return false
	}

	if err := rec.G.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "seed %d: generated dag violates SF restrictions: %v\n", seed, err)
		return false
	}
	if dot {
		fmt.Print(rec.G.DOT())
	}
	cfg := engine.Config{Detector: d}
	var f *os.File
	if save != "" {
		var err error
		if f, err = os.Create(save); err != nil {
			fmt.Fprintf(os.Stderr, "sfgen: %v\n", err)
			return false
		}
		cfg.Record = f
	}
	res, err := engine.Run(cfg, p.Main())
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "seed %d: %v run failed: %v\n", seed, d, err)
		return false
	}
	if got, want := res.RacyAddrs, log.RacyAddrs(rec); !slices.Equal(got, want) {
		fmt.Fprintf(os.Stderr, "seed %d: detector %v != oracle %v\n", seed, got, want)
		return false
	}
	if verbose {
		fmt.Printf("seed %-6d futures=%-4d nodes=%-5d accesses=%-6d racyAddrs=%v\n",
			seed, rec.G.NumFutures()-1, rec.G.NumNodes(), log.Accesses(), res.RacyAddrs)
	}
	return true
}
