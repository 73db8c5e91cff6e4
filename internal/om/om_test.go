package om

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"sforder/internal/slab"
)

// refList is a reference implementation: a plain slice kept in order.
type refList struct {
	items []*Item
}

func (r *refList) insertAfter(x *Item, it *Item) {
	if x == nil {
		r.items = append([]*Item{it}, r.items...)
		return
	}
	for i, cur := range r.items {
		if cur == x {
			r.items = append(r.items, nil)
			copy(r.items[i+2:], r.items[i+1:])
			r.items[i+1] = it
			return
		}
	}
	panic("refList: item not found")
}

func (r *refList) precedes(a, b *Item) bool {
	ia, ib := -1, -1
	for i, it := range r.items {
		if it == a {
			ia = i
		}
		if it == b {
			ib = i
		}
	}
	return ia < ib
}

func TestInsertFirstAndSingle(t *testing.T) {
	l := NewList()
	a := l.NewFirst()
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
	if l.Precedes(a, a) {
		t.Error("item precedes itself")
	}
	b := l.NewAfter(a)
	if !l.Precedes(a, b) {
		t.Error("a should precede b")
	}
	if l.Precedes(b, a) {
		t.Error("b should not precede a")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertFirstPanicsOnNonEmpty(t *testing.T) {
	l := NewList()
	l.NewFirst()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on second InsertFirst")
		}
	}()
	l.NewFirst()
}

func TestInsertAfterNOrder(t *testing.T) {
	l := NewList()
	a := l.NewFirst()
	batch := l.NewAfterN(a, 3)
	want := []*Item{a, batch[0], batch[1], batch[2]}
	got := l.Order()
	if len(got) != len(want) {
		t.Fatalf("Order len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order mismatch at %d", i)
		}
	}
	for i := 0; i < len(want); i++ {
		for j := 0; j < len(want); j++ {
			if got := l.Precedes(want[i], want[j]); got != (i < j) {
				t.Errorf("Precedes(%d,%d) = %v, want %v", i, j, got, i < j)
			}
		}
	}
}

func TestInsertAfterNPanicsOnZero(t *testing.T) {
	l := NewList()
	a := l.NewFirst()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=0")
		}
	}()
	l.InsertAfterN(a, nil)
}

// TestRandomAgainstReference inserts thousands of items at random
// positions and compares every maintained answer against the slice-based
// reference implementation.
func TestRandomAgainstReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 42} {
		rng := rand.New(rand.NewSource(seed))
		l := NewList()
		ref := &refList{}
		first := l.NewFirst()
		ref.insertAfter(nil, first)
		for i := 0; i < 3000; i++ {
			x := ref.items[rng.Intn(len(ref.items))]
			it := l.NewAfter(x)
			ref.insertAfter(x, it)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Check full order.
		got := l.Order()
		for i := range got {
			if got[i] != ref.items[i] {
				t.Fatalf("seed %d: order mismatch at %d", seed, i)
			}
		}
		// Spot-check Precedes on random pairs.
		for i := 0; i < 2000; i++ {
			a := ref.items[rng.Intn(len(ref.items))]
			b := ref.items[rng.Intn(len(ref.items))]
			if l.Precedes(a, b) != ref.precedes(a, b) {
				t.Fatalf("seed %d: Precedes disagrees with reference", seed)
			}
		}
	}
}

// TestAppendHeavy exercises the "always insert after the last item"
// pattern, which stresses top-of-label-space handling.
func TestAppendHeavy(t *testing.T) {
	l := NewList()
	cur := l.NewFirst()
	items := []*Item{cur}
	for i := 0; i < 20000; i++ {
		cur = l.NewAfter(cur)
		items = append(items, cur)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		a, b := rand.Intn(len(items)), rand.Intn(len(items))
		if got := l.Precedes(items[a], items[b]); got != (a < b) {
			t.Fatalf("Precedes(%d, %d) = %v", a, b, got)
		}
	}
}

// TestInsertAlwaysAfterFirst stresses the opposite pattern: every insert
// lands immediately after the head, forcing repeated gap-halving, bucket
// relabels and splits near the front.
func TestInsertAlwaysAfterFirst(t *testing.T) {
	l := NewList()
	head := l.NewFirst()
	var items []*Item
	for i := 0; i < 20000; i++ {
		items = append(items, l.NewAfter(head))
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Items were prepended after head, so later inserts precede earlier.
	for i := 0; i < 1000; i++ {
		a, b := rand.Intn(len(items)), rand.Intn(len(items))
		if a == b {
			continue
		}
		if got := l.Precedes(items[a], items[b]); got != (a > b) {
			t.Fatalf("Precedes(items[%d], items[%d]) = %v", a, b, got)
		}
		if !l.Precedes(head, items[a]) {
			t.Fatal("head must precede every inserted item")
		}
	}
}

func TestCompare(t *testing.T) {
	l := NewList()
	a := l.NewFirst()
	b := l.NewAfter(a)
	if l.Compare(a, b) != -1 || l.Compare(b, a) != 1 || l.Compare(a, a) != 0 {
		t.Error("Compare results inconsistent")
	}
}

func TestStatsCounters(t *testing.T) {
	l := NewList()
	cur := l.NewFirst()
	for i := 0; i < 10000; i++ {
		cur = l.NewAfter(cur)
	}
	splits, _, _ := l.Stats()
	if splits == 0 {
		t.Error("expected at least one bucket split after 10k inserts")
	}
	if l.MemBytes() <= 0 {
		t.Error("MemBytes should be positive")
	}
}

// TestConcurrentQueries hammers Precedes from several goroutines on a
// frozen prefix of the list while the main goroutine keeps inserting,
// verifying that concurrent rebalancing never produces a wrong answer for
// already-placed item pairs.
func TestConcurrentQueries(t *testing.T) {
	l := NewList()
	cur := l.NewFirst()
	frozen := []*Item{cur}
	for i := 0; i < 512; i++ {
		cur = l.NewAfter(cur)
		frozen = append(frozen, cur)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := rng.Intn(len(frozen))
				b := rng.Intn(len(frozen))
				if got := l.Precedes(frozen[a], frozen[b]); got != (a < b) {
					select {
					case errs <- "concurrent Precedes returned wrong order":
					default:
					}
					return
				}
			}
		}(int64(g))
	}
	// Keep inserting at random frozen positions to force splits/relabels
	// while queries run.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		l.NewAfter(frozen[rng.Intn(len(frozen))])
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTransitivity property: for random insert sequences, Precedes
// is a strict total order (irreflexive, antisymmetric, transitive, total).
func TestQuickTransitivity(t *testing.T) {
	f := func(ops []uint16) bool {
		if len(ops) > 300 {
			ops = ops[:300]
		}
		l := NewList()
		items := []*Item{l.NewFirst()}
		for _, op := range ops {
			x := items[int(op)%len(items)]
			items = append(items, l.NewAfter(x))
		}
		n := len(items)
		if n > 24 {
			items = items[:24]
			n = 24
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				pij := l.Precedes(items[i], items[j])
				pji := l.Precedes(items[j], items[i])
				if i == j && (pij || pji) {
					return false
				}
				if i != j && pij == pji {
					return false // must be exactly one direction
				}
				for k := 0; k < n; k++ {
					if pij && l.Precedes(items[j], items[k]) && !l.Precedes(items[i], items[k]) {
						return false
					}
				}
			}
		}
		return l.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsertAfterSequential(b *testing.B) {
	l := NewList()
	cur := l.NewFirst()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur = l.NewAfter(cur)
	}
}

func BenchmarkPrecedes(b *testing.B) {
	l := NewList()
	cur := l.NewFirst()
	items := []*Item{cur}
	for i := 0; i < 4096; i++ {
		cur = l.NewAfter(cur)
		items = append(items, cur)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Precedes(items[i%len(items)], items[(i*7+1)%len(items)])
	}
}

// frontier places runs of 2 and 3 items alternately, the batches
// omPair.placeBranch inserts for a spawn without and with a sync
// placeholder. The English pattern anchors each run after the newest
// item; the Hebrew pattern anchors it after the first item of the newest
// run, which the run's older items follow.
// Items come from a slab, as the reachability substrate's strand records
// do.
type frontier struct {
	l      *List
	a      slab.Arena[Item]
	buf    [3]*Item
	anchor *Item
	hebrew bool
	runs   int
}

var itemSlabs = slab.NewPool[Item](512)

func newFrontier(hebrew bool) *frontier {
	f := &frontier{l: NewList(), hebrew: hebrew}
	f.anchor = f.a.Get(itemSlabs)
	f.l.InsertFirst(f.anchor)
	return f
}

// run fills the first n slots of buf with fresh items and returns them.
func (f *frontier) run(n int) []*Item {
	out := f.buf[:n]
	for i := range out {
		out[i] = f.a.Get(itemSlabs)
	}
	return out
}

func (f *frontier) place() {
	out := f.run(2 + f.runs%2)
	f.l.InsertAfterN(f.anchor, out)
	f.runs++
	if f.hebrew {
		f.anchor = out[0]
	} else {
		f.anchor = out[len(out)-1]
	}
}

// TestRenumbersAmortized pins the top-level renumber threshold: on both
// frontier patterns a renumbering must leave room for many splits, so
// that renumbers stay at most one per eight splits. A half-density
// threshold, which left gaps of 2, renumbered after 28% (English) and
// 48% (Hebrew) of the splits.
func TestRenumbersAmortized(t *testing.T) {
	for _, hebrew := range []bool{false, true} {
		f := newFrontier(hebrew)
		for f.l.Len() < 60000 {
			f.place()
		}
		if err := f.l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		splits, _, renumbers := f.l.Stats()
		if splits == 0 {
			t.Fatalf("hebrew=%v: no splits in %d items", hebrew, f.l.Len())
		}
		if 8*renumbers > splits {
			t.Errorf("hebrew=%v: %d renumbers for %d splits, want at most 1/8", hebrew, renumbers, splits)
		}
	}
}

// BenchmarkInsert prices one placed run (2 or 3 items from a slab,
// InsertAfterN) on the two frontier patterns and at uniformly random
// existing anchors. A list is rebuilt, off the clock, every 60k items.
func BenchmarkInsert(b *testing.B) {
	const listItems = 60000
	for _, row := range []string{"english-frontier", "hebrew-frontier", "random-anchor"} {
		b.Run(row, func(b *testing.B) {
			b.ReportAllocs()
			var f *frontier
			var items []*Item
			rng := uint64(1)
			for i := 0; i < b.N; i++ {
				if f == nil || f.l.Len() >= listItems {
					b.StopTimer()
					if f != nil {
						f.a.Release()
					}
					f = newFrontier(row == "hebrew-frontier")
					items = append(items[:0], f.anchor)
					b.StartTimer()
				}
				if row != "random-anchor" {
					f.place()
					continue
				}
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				out := f.run(2 + i%2)
				f.l.InsertAfterN(items[rng%uint64(len(items))], out)
				items = append(items, out...)
			}
		})
	}
}
