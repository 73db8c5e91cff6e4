package depa

import (
	"math/rand"
	"testing"
)

// forest describes a test strand forest as BuildTable inputs.
type forest struct {
	parent []int32
	comp   []uint8
}

// chainForest is a single spine of depth n-1: every strand extends the
// previous one, crossing a chunk boundary every 32 strands.
func chainForest(n int) forest {
	f := forest{parent: make([]int32, n), comp: make([]uint8, n)}
	f.parent[0] = -1
	for i := 1; i < n; i++ {
		f.parent[i] = int32(i - 1)
		f.comp[i] = uint8(1 + (i % 3))
	}
	return f
}

// randForest attaches each strand to a uniformly random earlier one.
func randForest(n int, seed int64) forest {
	rng := rand.New(rand.NewSource(seed))
	f := forest{parent: make([]int32, n), comp: make([]uint8, n)}
	f.parent[0] = -1
	for i := 1; i < n; i++ {
		f.parent[i] = int32(rng.Intn(i))
		f.comp[i] = uint8(1 + rng.Intn(3))
	}
	return f
}

// extendReference builds the same forest's labels the online way: one
// Extend per strand, heap-allocated.
func extendReference(f forest) []*Label {
	labels := make([]*Label, len(f.parent))
	for i, p := range f.parent {
		if p < 0 {
			labels[i] = NewLabel(nil)
		} else {
			labels[i] = labels[p].Extend(nil, f.comp[i])
		}
	}
	return labels
}

// chainWords flattens a cord's frozen chain, root word first.
func chainWords(l *Label) []uint64 {
	out := make([]uint64, l.FullWords())
	for c := l.frozen; c != nil; c = c.prev {
		out[c.idx] = c.word
	}
	return out
}

func sameWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBuildTableMatchesExtend: table-built labels are content-identical
// to Extend-built ones — depth, tail, every frozen word — and the
// chunk-sharing structure agrees (Rel examines the same number of
// words), on chains that cross chunk boundaries and on random forests,
// at 1 and 4 fill workers.
func TestBuildTableMatchesExtend(t *testing.T) {
	forests := map[string]forest{
		"chain130":  chainForest(130),
		"chain64":   chainForest(64), // ends exactly on a freeze
		"rand1000":  randForest(1000, 1),
		"rand300":   randForest(300, 2),
		"singleton": {parent: []int32{-1}, comp: []uint8{0}},
	}
	for name, f := range forests {
		ref := extendReference(f)
		for _, workers := range []int{1, 4} {
			tab, err := BuildTable(f.parent, f.comp, TableConfig{Workers: workers})
			if err != nil {
				t.Fatalf("%s/%dw: %v", name, workers, err)
			}
			if tab.Len() != len(ref) {
				t.Fatalf("%s/%dw: %d labels, want %d", name, workers, tab.Len(), len(ref))
			}
			for i, want := range ref {
				got := tab.Label(i)
				if got.Depth() != want.Depth() || got.tail != want.tail ||
					!sameWords(chainWords(got), chainWords(want)) {
					t.Fatalf("%s/%dw: label %d differs: depth %d/%d tail %#x/%#x",
						name, workers, i, got.Depth(), want.Depth(), got.tail, want.tail)
				}
			}
			// Order verdicts and compare depths agree pairwise: the
			// chunk sharing must be structural, not just content-equal.
			rng := rand.New(rand.NewSource(int64(workers)))
			for k := 0; k < 500; k++ {
				i, j := rng.Intn(len(ref)), rng.Intn(len(ref))
				ge, gh, gw := Rel(tab.Label(i), tab.Label(j))
				we, wh, ww := Rel(ref[i], ref[j])
				if ge != we || gh != wh || gw != ww {
					t.Fatalf("%s/%dw: Rel(%d,%d) = (%v,%v,%d), want (%v,%v,%d)",
						name, workers, i, j, ge, gh, gw, we, wh, ww)
				}
			}
		}
	}
}

// TestBuildTableMemAccounting: MemBytes is what the online substrate
// accounts for the same forest — headers and one ChunkBytes per freeze.
func TestBuildTableMemAccounting(t *testing.T) {
	f := chainForest(130)
	tab, err := BuildTable(f.parent, f.comp, TableConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := 130*LabelBytes + tab.Chunks()*ChunkBytes
	if got := tab.MemBytes(); got != want {
		t.Fatalf("MemBytes %d, want %d", got, want)
	}
	if tab.Chunks() != 129/32 {
		t.Fatalf("chunks %d, want %d", tab.Chunks(), 129/32)
	}
	if tab.MaxDepth() != 129 {
		t.Fatalf("maxDepth %d, want 129", tab.MaxDepth())
	}
}

// TestBuildTableSegmentBalance: the fill partition is even — at 4
// workers no segment holds more than half the work, even on a pure
// chain (the shape that defeats tree-based partitioning).
func TestBuildTableSegmentBalance(t *testing.T) {
	for name, f := range map[string]forest{"chain": chainForest(2000), "rand": randForest(2000, 4)} {
		tab, err := BuildTable(f.parent, f.comp, TableConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		seg := tab.SegmentWork()
		if len(seg) != 4 {
			t.Fatalf("%s: %d segments, want 4", name, len(seg))
		}
		var total, max int64
		for _, w := range seg {
			total += w
			if w > max {
				max = w
			}
		}
		if total != int64(tab.Len()+tab.Chunks()) {
			t.Fatalf("%s: segment work %d, want %d labels + %d chunks", name, total, tab.Len(), tab.Chunks())
		}
		if 2*max > total {
			t.Fatalf("%s: largest segment %d of %d exceeds half the work", name, max, total)
		}
	}
}

// TestBuildTableRejectsMalformed: non-topological parents, invalid
// components, and mismatched input lengths error instead of building a
// corrupt table.
func TestBuildTableRejectsMalformed(t *testing.T) {
	cases := map[string]forest{
		"forward parent": {parent: []int32{-1, 2, 1}, comp: []uint8{0, 1, 1}},
		"self parent":    {parent: []int32{-1, 1}, comp: []uint8{0, 1}},
		"zero comp":      {parent: []int32{-1, 0}, comp: []uint8{0, 0}},
		"big comp":       {parent: []int32{-1, 0}, comp: []uint8{0, 4}},
		"len mismatch":   {parent: []int32{-1, 0}, comp: []uint8{0}},
	}
	for name, f := range cases {
		if _, err := BuildTable(f.parent, f.comp, TableConfig{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
