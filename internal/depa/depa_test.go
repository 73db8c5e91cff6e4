package depa_test

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"sforder/internal/depa"
)

// refLess is the reference lexicographic comparison over unpacked
// component slices, with ord mapping components to their rank.
func refLess(a, b []uint8, ord func(uint8) uint8) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return ord(a[i]) < ord(b[i])
		}
	}
	return len(a) < len(b)
}

func engOrd(c uint8) uint8 { return c }
func hebOrd(c uint8) uint8 {
	switch c {
	case depa.Child:
		return depa.Cont
	case depa.Cont:
		return depa.Child
	}
	return c
}

// build materializes a component path as a cord Label via Extend,
// sharing structure with the labels of every proper prefix — the way
// the substrate builds them.
func build(a *depa.Arena, path []uint8) *depa.Label {
	l := depa.NewLabel(a)
	for _, c := range path {
		l = l.Extend(a, c)
	}
	return l
}

// fuzzPair draws a random label pair biased toward shared prefixes and
// word-boundary lengths so the packed edge cases (diff in a later
// word, full last word, proper prefix) all get exercised.
func fuzzPair(rng *rand.Rand) (pre, ta, tb []uint8) {
	comps := []uint8{depa.Child, depa.Cont, depa.Sync}
	pre = make([]uint8, rng.Intn(70))
	for i := range pre {
		pre[i] = comps[rng.Intn(3)]
	}
	mk := func() []uint8 {
		tail := make([]uint8, rng.Intn(70))
		for i := range tail {
			tail[i] = comps[rng.Intn(3)]
		}
		return tail
	}
	return pre, mk(), mk()
}

func cat(pre, tail []uint8) []uint8 {
	return append(append([]uint8(nil), pre...), tail...)
}

// extendFrom grows an existing label by path — the substrate's usage:
// every label descends from its tree parent, so chunk chains share
// structure wherever paths share prefixes.
func extendFrom(a *depa.Arena, l *depa.Label, path []uint8) *depa.Label {
	for _, c := range path {
		l = l.Extend(a, c)
	}
	return l
}

func TestRelMatchesReferenceFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var arena depa.Arena
	defer arena.Release()
	for trial := 0; trial < 2000; trial++ {
		pre, ta, tb := fuzzPair(rng)
		lpre := build(&arena, pre)
		la := extendFrom(&arena, lpre, ta)
		lb := extendFrom(&arena, lpre, tb)
		pa, pb := cat(pre, ta), cat(pre, tb)

		wantEng := refLess(pa, pb, engOrd)
		wantHeb := refLess(pa, pb, hebOrd)
		eng, heb, w := depa.Rel(la, lb)
		if eng != wantEng || heb != wantHeb {
			t.Fatalf("trial %d: Rel(%v, %v) = (%v, %v), want (%v, %v)",
				trial, pa, pb, eng, heb, wantEng, wantHeb)
		}
		// With shared chains the walk examines only chunks frozen after
		// the fork: at most ceil(69/32)+1 per side here, not O(depth).
		if w < 1 || w > 4 {
			t.Fatalf("trial %d: cord compare examined %d words, want 1..4", trial, w)
		}
		if la.Depth() != len(pa) || lb.Depth() != len(pb) {
			t.Fatalf("trial %d: Depth mismatch", trial)
		}
	}
}

// relCase decodes FuzzRel's input to a shared prefix and two tails, each
// shorter than 100 components, so up to three full words and a tail. The
// second tail starts with the first same components of the first, so
// the labels can agree past a word boundary; every other component is
// drawn two bits at a time from comps, and is Cont once comps run out.
func relCase(npre, na, nb, same uint8, comps []byte) (pre, ta, tb []uint8) {
	next := 0
	draw := func(n uint8) []uint8 {
		out := make([]uint8, n%100)
		for i := range out {
			out[i] = depa.Cont
			if next/4 < len(comps) {
				out[i] = []uint8{depa.Child, depa.Cont, depa.Sync}[(comps[next/4]>>(2*(next%4))&3)%3]
			}
			next++
		}
		return out
	}
	pre, ta, tb = draw(npre), draw(na), draw(nb)
	copy(tb, ta[:min(int(same), len(ta))])
	return pre, ta, tb
}

// FuzzRel holds Rel and LeftOf to the reference compare over the flat
// component slices, on labels that share their prefix's chunks (grown
// from one prefix label, as the substrate grows them) and on labels built
// independently, where no chunk is shared and the walk must compare
// content-equal words. Lengths cross the 32-component chunk boundary.
func FuzzRel(f *testing.F) {
	// The packed edge cases TestRelMatchesReferenceFuzz draws at random.
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct {
		pre, a, b, same uint8
		comps           []byte // drawn at random when nil
	}{
		{0, 0, 0, 0, nil},     // root against root
		{32, 0, 1, 0, nil},    // a proper prefix ending on a word boundary
		{0, 32, 64, 32, nil},  // a full word against the same word and one more
		{31, 1, 1, 0, nil},    // one full word each, equal up to its last component
		{5, 40, 40, 35, nil},  // differing in a later word than the first
		{0, 40, 5, 0, nil},    // a chain's first word against a label that is all tail
		{63, 1, 33, 1, nil},   // a tail against the deeper chain's boundary word
		{64, 32, 31, 31, nil}, // a full word against the tail that is its prefix
		{33, 99, 99, 98, nil}, // the deepest divergence the decoding allows
		// Differing in the first of three words and the other way round in
		// the second: the components repeat Cont, Child, Child, Cont, so
		// the second tail is the first shifted by two.
		{3, 70, 70, 10, bytes.Repeat([]byte{0x41}, 36)},
	} {
		comps := c.comps
		if comps == nil {
			comps = make([]byte, 80)
			rng.Read(comps)
		}
		f.Add(c.pre, c.a, c.b, c.same, comps)
	}
	f.Fuzz(func(t *testing.T, npre, na, nb, same uint8, comps []byte) {
		pre, ta, tb := relCase(npre, na, nb, same, comps)
		paths := [2][]uint8{cat(pre, ta), cat(pre, tb)}
		var arena depa.Arena
		defer arena.Release()
		lpre := build(&arena, pre)
		for _, ls := range []struct {
			how    string
			labels [2]*depa.Label
		}{
			{"shared", [2]*depa.Label{extendFrom(&arena, lpre, ta), extendFrom(&arena, lpre, tb)}},
			{"unshared", [2]*depa.Label{build(&arena, paths[0]), build(&arena, paths[1])}},
		} {
			for _, i := range []int{0, 1} { // both orders
				x, y := paths[i], paths[1-i]
				wantEng, wantHeb := refLess(x, y, engOrd), refLess(x, y, hebOrd)
				if eng, heb, _ := depa.Rel(ls.labels[i], ls.labels[1-i]); eng != wantEng || heb != wantHeb {
					t.Fatalf("%s: Rel(%v, %v) = (%v, %v), want (%v, %v)", ls.how, x, y, eng, heb, wantEng, wantHeb)
				}
				if left, _ := depa.LeftOf(ls.labels[i], ls.labels[1-i]); left != wantEng {
					t.Fatalf("%s: LeftOf(%v, %v) = %v, want %v", ls.how, x, y, left, wantEng)
				}
			}
		}
	})
}

// TestRelUnsharedChains compares labels built by independent Extend
// walks: the common prefix is content-equal but the chunk nodes are
// distinct allocations, so the pointer-equality skip never fires and
// Rel must fall back to the full lockstep walk — correctness does not
// depend on structural sharing, only the O(1) bound does.
func TestRelUnsharedChains(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var arena depa.Arena
	defer arena.Release()
	for trial := 0; trial < 500; trial++ {
		pre, ta, tb := fuzzPair(rng)
		pa, pb := cat(pre, ta), cat(pre, tb)
		la := build(&arena, pa) // independent builds: no shared chunks
		lb := build(&arena, pb)
		wantEng := refLess(pa, pb, engOrd)
		wantHeb := refLess(pa, pb, hebOrd)
		eng, heb, _ := depa.Rel(la, lb)
		if eng != wantEng || heb != wantHeb {
			t.Fatalf("trial %d: unshared Rel(%v, %v) = (%v, %v), want (%v, %v)",
				trial, pa, pb, eng, heb, wantEng, wantHeb)
		}
	}
}

func TestRelEqualAndPrefix(t *testing.T) {
	var a depa.Arena
	defer a.Release()
	root := depa.NewLabel(&a)
	if eng, heb, _ := depa.Rel(root, root); eng || heb {
		t.Fatal("equal labels must relate false in both orders")
	}
	// Proper prefix ending exactly on a word boundary (32 components).
	p := make([]uint8, 32)
	for i := range p {
		p[i] = depa.Cont
	}
	short := build(&a, p)
	if short.FullWords() != 1 || short.Depth() != 32 {
		t.Fatalf("32-component label: FullWords=%d Depth=%d", short.FullWords(), short.Depth())
	}
	long := short.Extend(&a, depa.Child)
	if eng, heb, _ := depa.Rel(short, long); !eng || !heb {
		t.Fatal("ancestor must precede descendant in both orders")
	}
	if eng, heb, _ := depa.Rel(long, short); eng || heb {
		t.Fatal("descendant must not precede ancestor")
	}
	if eng, heb, _ := depa.Rel(root, long); !eng || !heb {
		t.Fatal("root must precede everything")
	}
}

// TestBranchOrders pins the spawn-point algebra the core substrate
// relies on: English child < cont < sync, Hebrew cont < child < sync,
// with the forker's label before all three in both.
func TestBranchOrders(t *testing.T) {
	var a depa.Arena
	defer a.Release()
	u := build(&a, []uint8{depa.Cont, depa.Child}) // arbitrary interior strand
	child := u.Extend(&a, depa.Child)
	cont := u.Extend(&a, depa.Cont)
	sync := u.Extend(&a, depa.Sync)

	mustRel := func(x, y *depa.Label, wantEng, wantHeb bool, what string) {
		t.Helper()
		eng, heb, _ := depa.Rel(x, y)
		if eng != wantEng || heb != wantHeb {
			t.Errorf("%s: got (%v, %v), want (%v, %v)", what, eng, heb, wantEng, wantHeb)
		}
	}
	mustRel(u, child, true, true, "u before child")
	mustRel(u, cont, true, true, "u before cont")
	mustRel(u, sync, true, true, "u before sync")
	mustRel(child, cont, true, false, "child/cont: English yes, Hebrew no")
	mustRel(cont, child, false, true, "cont/child: Hebrew yes, English no")
	mustRel(child, sync, true, true, "child before sync in both")
	mustRel(cont, sync, true, true, "cont before sync in both")
	// Nested: a grandchild under cont still precedes the sync in both
	// orders and stays on its side of the child/cont divide.
	g := cont.Extend(&a, depa.Child).Extend(&a, depa.Cont)
	mustRel(g, sync, true, true, "cont-subtree strand before sync")
	mustRel(child, g, true, false, "child vs cont-subtree matches child vs cont")
}

// TestDeepCordLabels drives a cord chain far past one slab of chunk
// nodes and checks both the derived geometry and that comparisons stay
// one word regardless of depth.
func TestDeepCordLabels(t *testing.T) {
	var a depa.Arena
	defer a.Release()
	l := depa.NewLabel(&a)
	const depth = 70000
	for i := 0; i < depth; i++ {
		l = l.Extend(&a, depa.Cont)
	}
	if l.Depth() != depth {
		t.Fatalf("depth = %d, want %d", l.Depth(), depth)
	}
	if l.FullWords() != depth/32 {
		t.Fatalf("full words = %d, want %d", l.FullWords(), depth/32)
	}
	parent := build(&a, []uint8{depa.Cont})
	if eng, heb, w := depa.Rel(parent, l); !eng || !heb || w != 1 {
		t.Fatalf("shallow ancestor vs deep label: (%v, %v, %d)", eng, heb, w)
	}
	sib := parent.Extend(&a, depa.Child)
	if eng, heb, w := depa.Rel(sib, l); !eng || heb || w != 1 {
		t.Fatalf("deep cont-path strand vs child: (%v, %v, %d)", eng, heb, w)
	}
	// Two deep siblings diverging at the bottom: the LCA skip must
	// shortcut the ~2185 shared chunks.
	sa := l.Extend(&a, depa.Child).Extend(&a, depa.Cont)
	sb := l.Extend(&a, depa.Cont)
	if eng, heb, w := depa.Rel(sa, sb); !eng || heb || w != 1 {
		t.Fatalf("deep siblings: (%v, %v, %d)", eng, heb, w)
	}
}

func TestArenaRecycle(t *testing.T) {
	var a depa.Arena
	build(&a, []uint8{depa.Child, depa.Sync})
	if a.Bytes() == 0 {
		t.Fatal("arena reported zero bytes after allocations")
	}
	a.Release()
	if a.Bytes() != 0 {
		t.Fatal("Release must zero the byte count")
	}
	// Reuse after release must hand out valid labels again, including
	// recycled chunk nodes (33 components forces a freeze).
	p := make([]uint8, 33)
	for i := range p {
		p[i] = depa.Cont
	}
	l2 := build(&a, p)
	if l2.Depth() != 33 || l2.FullWords() != 1 {
		t.Fatal("arena unusable after Release")
	}
}

func TestNilArenaHeapFallback(t *testing.T) {
	p := make([]uint8, 40) // crosses a word boundary: heap chunk nodes too
	for i := range p {
		p[i] = depa.Sync
	}
	l := build(nil, p)
	if l.Depth() != 40 || l.FullWords() != 1 {
		t.Fatal("nil-arena cord labels must work")
	}
	if (*depa.Arena)(nil).Bytes() != 0 {
		t.Fatal("nil arena gauge")
	}
	(*depa.Arena)(nil).Release()
}

// TestMemBytes pins the accounting sizes to the layouts: a label is its
// chain pointer and tail word, 16 bytes on 64-bit platforms; a chunk node
// is its prev pointer, its word and its 32-bit index, padded to a
// pointer's alignment (a word's on 32-bit platforms), 24 bytes on 64-bit
// ones.
func TestMemBytes(t *testing.T) {
	ptr := int(unsafe.Sizeof(uintptr(0)))
	if want := ptr + 8; depa.LabelBytes != want || ptr == 8 && depa.LabelBytes != 16 {
		t.Fatalf("cord label header = %d bytes, want %d (16 on 64-bit)", depa.LabelBytes, want)
	}
	if want := (ptr + 8 + 4 + ptr - 1) / ptr * ptr; depa.ChunkBytes != want || ptr == 8 && depa.ChunkBytes != 24 {
		t.Fatalf("chunk node = %d bytes, want %d (24 on 64-bit)", depa.ChunkBytes, want)
	}
	var a depa.Arena
	defer a.Release()
	deep := depa.NewLabel(&a)
	for i := 0; i < 100; i++ {
		deep = deep.Extend(&a, depa.Cont)
	}
	if deep.MemBytes() != depa.LabelBytes {
		t.Fatal("cord MemBytes must count only the header — chunks are shared")
	}
}
