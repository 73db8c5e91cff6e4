package om_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"sforder/internal/om"
)

// TestExhaustionEscalatesInsteadOfPanicking regresses the former
// `panic("om: label space exhausted")`: an adversarial storm of inserts
// after the same anchor concentrates every new item at one point of the
// list, so top-level gaps halve until even a global renumbering over the
// (test-shrunk) label space cannot open gaps. The list must escalate —
// widen the space to the hard ceiling and renumber — rather than panic,
// and every Precedes verdict must survive the escalated renumber.
func TestExhaustionEscalatesInsteadOfPanicking(t *testing.T) {
	for _, variant := range []struct {
		name string
		mk   func() *om.List
	}{
		{"finegrained", om.NewList},
		{"globallock", om.NewListGlobalLock},
	} {
		t.Run(variant.name, func(t *testing.T) {
			l := variant.mk()
			// 2^9 soft bound: a global renumber fails once the list has
			// more than 2^8 buckets (~10k items at 64-cap buckets), so
			// 20k same-anchor inserts genuinely reach the old panic path.
			l.SetLabelSpaceForTest(1<<9, 1<<40)

			anchor := l.NewFirst()
			const n = 20000
			items := make([]*om.Item, n)
			for i := range items {
				items[i] = l.NewAfter(anchor)
			}

			if got := l.Escalations(); got < 1 {
				t.Fatalf("escalations = %d, want >= 1 (storm never reached the old panic path)", got)
			}
			_, _, renumbers := l.Stats()
			if renumbers < 2 {
				t.Fatalf("renumbers = %d, want >= 2 (escalation must count as a renumber)", renumbers)
			}
			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("invariants after escalation: %v", err)
			}

			// Inserting after the same anchor reverses insertion order:
			// items[j] sits before items[i] in the list iff j > i.
			for _, pair := range [][2]int{{0, 1}, {0, n - 1}, {n / 2, n/2 + 1}, {17, n - 3}} {
				i, j := pair[0], pair[1]
				if !l.Precedes(items[j], items[i]) {
					t.Errorf("items[%d] should precede items[%d] after escalation", j, i)
				}
				if l.Precedes(items[i], items[j]) {
					t.Errorf("items[%d] must not precede items[%d] after escalation", i, j)
				}
			}
			for _, it := range []*om.Item{items[0], items[n/2], items[n-1]} {
				if !l.Precedes(anchor, it) {
					t.Error("anchor must precede every stormed item after escalation")
				}
			}
			ord := l.Order()
			if len(ord) != n+1 {
				t.Fatalf("Order() has %d items, want %d", len(ord), n+1)
			}
			if ord[0] != anchor {
				t.Fatal("anchor is no longer first after escalation")
			}
			for i, it := range ord[1:] {
				if it != items[n-1-i] {
					t.Fatalf("Order()[%d] out of place after escalation", i+1)
				}
			}
		})
	}
}

// TestExhaustionEscalationConcurrentReaders runs the same-anchor storm
// while reader goroutines continuously query Precedes over a prefix of
// already-placed items: the escalated global renumber rewrites every
// top-level label, and the seqlock must force readers to re-validate so
// no verdict ever inverts. Run under -race in CI.
func TestExhaustionEscalationConcurrentReaders(t *testing.T) {
	l := om.NewList()
	l.SetLabelSpaceForTest(1<<9, 1<<40)

	anchor := l.NewFirst()
	const pre = 256
	fixed := make([]*om.Item, pre)
	for i := range fixed {
		fixed[i] = l.NewAfter(anchor)
	}

	var stop atomic.Bool
	var bad atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := seed
			for !stop.Load() {
				j := (i*7 + 13) % pre
				k := (j + 1 + i%11) % pre
				if j == k {
					continue
				}
				lo, hi := j, k
				if lo < hi {
					lo, hi = hi, lo
				}
				// Relative order of placed items never changes:
				// fixed[lo] (inserted later) precedes fixed[hi].
				if !l.Precedes(fixed[lo], fixed[hi]) || l.Precedes(fixed[hi], fixed[lo]) {
					bad.Add(1)
				}
				if !l.Precedes(anchor, fixed[j]) {
					bad.Add(1)
				}
				i++
			}
		}(r * 31)
	}

	const n = 20000
	for i := 0; i < n; i++ {
		l.NewAfter(anchor)
	}
	stop.Store(true)
	wg.Wait()

	if got := bad.Load(); got != 0 {
		t.Fatalf("%d Precedes verdicts inverted during the escalated renumber", got)
	}
	if got := l.Escalations(); got < 1 {
		t.Fatalf("escalations = %d, want >= 1", got)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestProductionBoundsDoNotEscalate pins that realistic insert volumes
// never trigger escalation under the production label space: the soft
// bound only packs past half occupancy at ~2^61 buckets.
func TestProductionBoundsDoNotEscalate(t *testing.T) {
	l := om.NewList()
	anchor := l.NewFirst()
	for i := 0; i < 50000; i++ {
		l.NewAfter(anchor)
	}
	if got := l.Escalations(); got != 0 {
		t.Fatalf("escalations = %d under production bounds, want 0", got)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
