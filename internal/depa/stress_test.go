package depa_test

import (
	"sync"
	"testing"

	"sforder/internal/depa"
)

// TestConcurrentRelDuringExtends mirrors the substrate's sharing
// pattern under the race detector: one deep parent label whose frozen
// chunk chain is shared by every worker, while each worker extends it
// through a private arena and compares its strands against the others'
// published labels. Labels and chunks are immutable, so no
// synchronization is required — the detector verifies it.
func TestConcurrentRelDuringExtends(t *testing.T) {
	var shared depa.Arena
	defer shared.Release()
	parent := depa.NewLabel(&shared)
	for i := 0; i < 200; i++ { // several frozen chunks to walk and share
		parent = parent.Extend(&shared, depa.Cont)
	}

	// One distinct subtree root per worker: worker w sits under
	// parent·Child^w·Cont, so worker 0's subtree takes the Cont branch
	// at the fork every other worker's takes as Child — English puts
	// the Child side first, Hebrew the Cont side.
	const workers = 4
	published := make([]*depa.Label, workers)
	for w := range published {
		l := parent
		for i := 0; i < w; i++ {
			l = l.Extend(&shared, depa.Child)
		}
		published[w] = l.Extend(&shared, depa.Cont)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			other := published[0]
			wantEng, wantHeb := true, false // Child side vs worker 0's Cont
			if w == 0 {
				other = published[1]
				wantEng, wantHeb = false, true
			}
			var a depa.Arena
			defer a.Release()
			l := published[w]
			for i := 0; i < 5000; i++ {
				l = l.Extend(&a, depa.Cont)
				eng, heb, cw := depa.Rel(l, other)
				if eng != wantEng || heb != wantHeb || cw != 1 {
					// The fork word is the boundary pair, so every compare
					// examines exactly one word despite the growing depth.
					t.Errorf("worker %d iter %d: (%v, %v, %d), want (%v, %v, 1)",
						w, i, eng, heb, cw, wantEng, wantHeb)
					return
				}
				if eng, heb, _ := depa.Rel(parent, l); !eng || !heb {
					t.Errorf("worker %d iter %d: ancestor verdict (%v, %v)", w, i, eng, heb)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestReleaseRecycleChunks cycles build → concurrent readers → Release
// so later rounds run on recycled label and chunk slabs. Under
// -race this checks the pool hand-off publishes the reused memory.
func TestReleaseRecycleChunks(t *testing.T) {
	for round := 0; round < 8; round++ {
		var a depa.Arena
		base := depa.NewLabel(&a)
		for i := 0; i < 600; i++ { // ~19 chunk nodes per round
			base = base.Extend(&a, depa.Cont)
		}
		left := base.Extend(&a, depa.Child)
		right := base.Extend(&a, depa.Cont)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					if eng, _, cw := depa.Rel(left, right); !eng || cw != 1 {
						t.Errorf("round %d: left/right English=%v cmpWords=%d", round, eng, cw)
						return
					}
				}
			}()
		}
		wg.Wait()
		if a.Bytes() == 0 {
			t.Fatalf("round %d: no arena bytes", round)
		}
		a.Release()
	}
}
