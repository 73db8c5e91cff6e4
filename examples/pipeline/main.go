// Pipeline: a ferret-style four-stage similarity-search pipeline built
// from chained futures, race-detected on the fly — the "interesting
// application features that traditional fork-join parallelism could not
// achieve" use case from the paper's introduction.
//
// Each query flows segment → extract → index → rank, with every stage a
// future that gets its predecessor; different queries overlap freely.
// Stage s of query q can run while stage s+1 of query q-1 runs — a
// dependence structure fork-join cannot express without serializing
// whole stages.
//
//	go run ./examples/pipeline [-q 16] [-dim 256] [-detector sforder|forder|multibags]
package main

import (
	"flag"
	"fmt"
	"os"

	"sforder"
)

var (
	q        = flag.Int("q", 16, "number of queries")
	dim      = flag.Int("dim", 256, "feature vector length")
	detector = flag.String("detector", "sforder", "sforder, forder, multibags")
)

func main() {
	flag.Parse()
	det, ok := map[string]sforder.Detector{
		"sforder":   sforder.SFOrder,
		"forder":    sforder.FOrder,
		"multibags": sforder.MultiBags,
	}[*detector]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown detector %q\n", *detector)
		os.Exit(2)
	}

	nq, d := *q, *dim
	input := make([]int32, nq*d)
	for i := range input {
		input[i] = int32((int64(i)*2654435761 + 101) % 1021)
	}
	seg := make([]int32, nq*d)
	feat := make([]int32, nq*d)
	rank := make([]int32, nq)

	// Shadow layout: input, seg, feat, rank consecutive.
	aInput := func(i int) uint64 { return uint64(i) }
	aSeg := func(i int) uint64 { return uint64(nq*d + i) }
	aFeat := func(i int) uint64 { return uint64(2*nq*d + i) }
	aRank := func(i int) uint64 { return uint64(3*nq*d + i) }

	res, err := sforder.Run(sforder.Config{Detector: det, Workers: 4}, func(t *sforder.Task) {
		finals := make([]*sforder.Future, nq)
		for qi := 0; qi < nq; qi++ {
			qi := qi
			off := qi * d

			hSeg := t.Create(func(c *sforder.Task) any {
				for i := 0; i < d; i++ {
					c.Read(aInput(off + i))
					c.Write(aSeg(off + i))
					seg[off+i] = input[off+i] / 3
				}
				return nil
			})
			hFeat := t.Create(func(c *sforder.Task) any {
				c.Get(hSeg)
				for i := 0; i < d; i++ {
					c.Read(aSeg(off + i))
					c.Write(aFeat(off + i))
					feat[off+i] = seg[off+i] % 31
				}
				return nil
			})
			finals[qi] = t.Create(func(c *sforder.Task) any {
				c.Get(hFeat)
				var best int32
				for i := 0; i < d; i++ {
					c.Read(aFeat(off + i))
					if feat[off+i] > best {
						best = feat[off+i]
					}
				}
				c.Write(aRank(qi))
				rank[qi] = best
				return best
			})
		}
		// Serial output stage.
		for qi := 0; qi < nq; qi++ {
			t.Get(finals[qi])
			t.Read(aRank(qi))
		}
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("pipeline: %d queries × %d dims, detector %v\n", nq, d, det)
	fmt.Printf("  futures  %d\n", res.Futures-1)
	fmt.Printf("  strands  %d\n", res.Strands)
	fmt.Printf("  queries  %d reachability queries\n", res.Queries)
	fmt.Printf("  races    %d (want 0 — stages are chained by gets)\n", res.RaceCount)
	fmt.Printf("  ranks    %v...\n", rank[:minInt(8, nq)])
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
