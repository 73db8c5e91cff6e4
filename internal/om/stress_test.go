package om_test

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sforder/internal/om"
)

// TestConcurrentPrecedesUnderInsertStorm hammers the seqlock: reader
// goroutines run Precedes continuously while writer goroutines insert
// storms of items, forcing bucket splits, relabelings, and top-level
// renumberings underneath the optimistic reads. Each writer grows a
// private chain by repeatedly inserting after its own last item — the
// end-append pattern halves top-level label gaps geometrically, which
// is exactly the workload that exhausts gaps and triggers renumbers —
// so within a chain the ground truth is trivially i < j ⟺ chain[i]
// precedes chain[j], checkable while the storm is still running.
//
// Run under -race this doubles as a memory-model audit of the
// version/label atomics (the CI race job includes this package).
func TestConcurrentPrecedesUnderInsertStorm(t *testing.T) {
	const (
		writers         = 4
		insertsPerChain = 3000
		readers         = 4
	)
	l := om.NewList()
	root := l.NewFirst()

	chains := make([][]*om.Item, writers)
	published := make([]atomic.Int64, writers)
	for w := range chains {
		chains[w] = make([]*om.Item, insertsPerChain)
		chains[w][0] = l.NewAfter(root)
		published[w].Store(1)
	}

	var writerWG, readerWG sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			chain := chains[w]
			for i := 1; i < insertsPerChain; i++ {
				chain[i] = l.NewAfter(chain[i-1])
				// Release-store: readers that observe the new length
				// also observe the chain slot written above.
				published[w].Store(int64(i + 1))
			}
		}(w)
	}

	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(int64(r + 1)))
			for {
				select {
				case <-done:
					return
				default:
				}
				w := rng.Intn(writers)
				n := int(published[w].Load())
				if n < 2 {
					runtime.Gosched()
					continue
				}
				i, j := rng.Intn(n), rng.Intn(n)
				if i == j {
					continue
				}
				if i > j {
					i, j = j, i
				}
				a, b := chains[w][i], chains[w][j]
				if !l.Precedes(a, b) {
					errs <- "Precedes(chain[i], chain[j]) = false for i < j"
					return
				}
				if l.Precedes(b, a) {
					errs <- "Precedes(chain[j], chain[i]) = true for i < j"
					return
				}
				if !l.Precedes(root, b) {
					errs <- "Precedes(root, item) = false"
					return
				}
			}
		}(r)
	}

	// Writers finish first — readers keep querying through the whole
	// storm — then the readers are released.
	writerWG.Wait()
	close(done)
	readerWG.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	// The storm must actually have exercised the interesting machinery.
	splits, _, renumbers := l.Stats()
	if splits == 0 {
		t.Error("insert storm caused no bucket splits")
	}
	if renumbers == 0 {
		t.Error("insert storm caused no top-level renumbers")
	}
	if got, want := l.Len(), 1+writers*insertsPerChain; got != want {
		t.Errorf("Len() = %d, want %d", got, want)
	}

	// Quiescent validation: structural invariants, then the total order
	// against every chain's ground truth.
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	pos := make(map[*om.Item]int, l.Len())
	for i, it := range l.Order() {
		pos[it] = i
	}
	if pos[root] != 0 {
		t.Errorf("root at position %d", pos[root])
	}
	for w, chain := range chains {
		for i := 1; i < len(chain); i++ {
			if pos[chain[i-1]] >= pos[chain[i]] {
				t.Fatalf("writer %d: chain order violated at %d (%d >= %d)", w, i, pos[chain[i-1]], pos[chain[i]])
			}
		}
	}
}
