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
// to Extend-built ones — depth, tail, every frozen word — the table
// freezes as many chunks as the Extend calls did, and the chunk-sharing
// structure agrees (Rel examines the same number of words), on chains
// that cross chunk boundaries and on random forests, at 1 and 4 fill
// workers.
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
		froze := 0
		for i, p := range f.parent {
			if p >= 0 && ref[i].FullWords() != ref[p].FullWords() {
				froze++
			}
		}
		for _, workers := range []int{1, 4} {
			tab, err := BuildTable(f.parent, f.comp, TableConfig{Workers: workers})
			if err != nil {
				t.Fatalf("%s/%dw: %v", name, workers, err)
			}
			if len(tab.labels) != len(ref) || len(tab.chunks) != froze {
				t.Fatalf("%s/%dw: %d labels and %d chunks, want %d and %d",
					name, workers, len(tab.labels), len(tab.chunks), len(ref), froze)
			}
			for i, want := range ref {
				got := &tab.labels[i]
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
				ge, gh, gw := Rel(&tab.labels[i], &tab.labels[j])
				we, wh, ww := Rel(ref[i], ref[j])
				if ge != we || gh != wh || gw != ww {
					t.Fatalf("%s/%dw: Rel(%d,%d) = (%v,%v,%d), want (%v,%v,%d)",
						name, workers, i, j, ge, gh, gw, we, wh, ww)
				}
			}
		}
	}
}

// TestBuildTableMemAccounting: the table allocates what the online
// substrate accounts for the same forest — one label per strand and one
// chunk per freeze, every 32 components of depth.
func TestBuildTableMemAccounting(t *testing.T) {
	f := chainForest(130)
	tab, err := BuildTable(f.parent, f.comp, TableConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.labels) != 130 || len(tab.chunks) != 129/32 {
		t.Fatalf("%d labels and %d chunks, want 130 and %d", len(tab.labels), len(tab.chunks), 129/32)
	}
	if d := tab.labels[129].Depth(); d != 129 {
		t.Fatalf("deepest label at depth %d, want 129", d)
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
