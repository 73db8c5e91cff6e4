package detect

import (
	"sync"
	"testing"

	"sforder/internal/obsv"
	"sforder/internal/sched"
)

// TestStateWordPublicationHammer races lock-free loads of the two state
// words against stores under the page lock. Each strand touches a shared
// address set, then enough private addresses to flush early (publishing
// its words while it is still open), then the shared set again: a word
// that still names the strand is a hit, one a parallel strand overwrote
// in between is a fresh batch entry. Run under -race in CI.
func TestStateWordPublicationHammer(t *testing.T) {
	h := NewHistory(Options{Reach: parallelReach{}, DedupByAddr: true, FastPath: true})
	h.RegisterStats(obsv.NewRegistry()) // turn the hit counter on
	const goroutines, rounds, shared = 8, 12, 64
	touchShared := func(s *sched.Strand, g uint64) {
		for a := uint64(0); a < shared; a++ {
			if (a+g)%4 == 0 {
				h.Write(s, a)
			} else {
				h.Read(s, a)
			}
		}
	}
	var wg sync.WaitGroup
	for g := uint64(0); g < goroutines; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			private := (1 + g) << 20
			for r := uint64(0); r < rounds; r++ {
				s := newStrand(g*rounds + r)
				touchShared(s, g)
				for a := uint64(0); a < batchCap; a++ {
					h.Read(s, private+a) // reads only: private addresses stay race-free
				}
				touchShared(s, g)
				h.StrandClose(s)
			}
		}(g)
	}
	wg.Wait()

	// Every shared address was read and written by parallel strands, and
	// nothing else was written.
	if got := len(h.RacyAddrs()); got != shared {
		t.Errorf("racy addresses = %d, want the %d shared ones", got, shared)
	}
	if h.FastPathHits() == 0 {
		t.Error("no state-word hit: the hammer never exercised the lock-free loads")
	}
	// At rest the reader word is the locked reader set's newest member,
	// and empty exactly when the set is: it is the history's own field,
	// not a copy that could have drifted.
	h.tbl.forEach(func(r *record) {
		var newest *sched.Strand
		if n := len(r.readers); n > 0 {
			newest = r.readers[n-1]
		}
		if got := r.reader.Load(); got != newest {
			t.Errorf("reader word %v, newest recorded reader %v", got, newest)
		}
	})
}
