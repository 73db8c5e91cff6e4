// Command sfgen generates random structured-future programs, executes
// them under a chosen detector, validates the recorded dag against the
// structured-future restrictions, and cross-checks the detector's racy
// locations against the exhaustive oracle — a standalone fuzzing tool
// for the detector stack.
//
//	sfgen -seeds 100                    # fuzz 100 random programs
//	sfgen -seed 7 -dot                  # print one program's dag as DOT
//	sfgen -seed 7 -detector forder -v   # detail one run
package main

import (
	"flag"
	"fmt"
	"os"

	"sforder/internal/core"
	"sforder/internal/dag"
	"sforder/internal/detect"
	"sforder/internal/forder"
	"sforder/internal/multibags"
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

	bad := 0
	for s := *seed; s < *seed+int64(*seeds); s++ {
		if !fuzzOne(s, *depth, *ops, *addrs, *detector, *dot, *save, *verbose) {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "sfgen: %d/%d seeds FAILED\n", bad, *seeds)
		os.Exit(1)
	}
	fmt.Printf("sfgen: %d seeds ok\n", *seeds)
}

type reachComponent interface {
	sched.Tracer
	detect.Reachability
}

type multiChecker []sched.AccessChecker

func (m multiChecker) Read(s *sched.Strand, addr uint64) {
	for _, c := range m {
		c.Read(s, addr)
	}
}
func (m multiChecker) Write(s *sched.Strand, addr uint64) {
	for _, c := range m {
		c.Write(s, addr)
	}
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

func fuzzOne(seed int64, depth, ops, addrs int, detector string, dot bool, save string, verbose bool) bool {
	p := progen.New(progen.Config{Seed: seed, MaxDepth: depth, MaxOps: ops, Addrs: addrs})

	var reach reachComponent
	switch detector {
	case "sforder":
		reach = core.NewReach()
	case "forder":
		reach = forder.NewReach()
	case "multibags":
		reach = multibags.NewReach()
	default:
		fmt.Fprintf(os.Stderr, "sfgen: unknown detector %q\n", detector)
		os.Exit(2)
	}

	hist := detect.NewHistory(detect.Options{Reach: reach})
	rec := dag.NewRecorder()
	log := oracle.NewLogger()
	_, err := sched.Run(sched.Options{
		Serial:  true,
		Tracer:  sched.MultiTracer{reach, rec},
		Checker: multiChecker{hist, log},
	}, p.Main())
	if err != nil {
		fmt.Fprintf(os.Stderr, "seed %d: run failed: %v\n", seed, err)
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

	got, want := hist.RacyAddrs(), log.RacyAddrs(rec)
	ok := len(got) == len(want)
	if ok {
		for i := range got {
			if got[i] != want[i] {
				ok = false
				break
			}
		}
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "seed %d: detector %v != oracle %v\n", seed, got, want)
		return false
	}
	if verbose {
		fmt.Printf("seed %-6d futures=%-4d nodes=%-5d accesses=%-6d racyAddrs=%v\n",
			seed, rec.G.NumFutures()-1, rec.G.NumNodes(), log.Accesses(), want)
	}
	return true
}
