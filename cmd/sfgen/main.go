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
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"sforder/internal/dag"
	"sforder/internal/engine"
	"sforder/internal/oracle"
	"sforder/internal/progen"
	"sforder/internal/sched"
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
		save     = flag.String("save", "", "write the recorded dag as JSON to this file")
		load     = flag.String("load", "", "validate a previously saved dag file and exit")
		verbose  = flag.Bool("v", false, "per-seed detail")
	)
	flag.Parse()

	if *load != "" {
		validateSaved(*load)
		return
	}
	d, ok := map[string]engine.Detector{
		"sforder":   engine.SFOrder,
		"forder":    engine.FOrder,
		"multibags": engine.MultiBags,
	}[*detector]
	if !ok {
		fmt.Fprintf(os.Stderr, "sfgen: unknown detector %q\n", *detector)
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

// validateSaved loads a dag saved with -save, revalidates the SF
// restrictions, and prints its shape.
func validateSaved(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfgen: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	g, err := dag.Decode(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfgen: %v\n", err)
		os.Exit(1)
	}
	if err := g.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "sfgen: saved dag INVALID: %v\n", err)
		os.Exit(1)
	}
	work, span := g.WorkSpan()
	fmt.Printf("sfgen: %s ok — %d nodes, %d futures, work %d, span %d\n",
		path, g.NumNodes(), g.NumFutures()-1, work, span)
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
	if save != "" {
		f, err := os.Create(save)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfgen: %v\n", err)
			return false
		}
		err = rec.G.Encode(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfgen: save: %v\n", err)
			return false
		}
	}

	res, err := engine.Run(engine.Config{Detector: d}, p.Main())
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
