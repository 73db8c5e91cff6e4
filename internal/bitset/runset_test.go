package bitset

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// flatBytes is the counted size of the flat encoding of s's members:
// 8·⌈(maxID+1)/64⌉, what Set.MemBytes reports at best.
func flatBytes(ids []int) int {
	if len(ids) == 0 {
		return 0
	}
	return 8 * (ids[len(ids)-1]/wordBits + 1)
}

// checkNormal fails unless s is in RunSet's normal form and counts no
// more than its flat encoding.
func checkNormal(t testing.TB, s *RunSet) {
	t.Helper()
	if s == nil {
		return
	}
	win := s.window()
	if (s.n == 0) != (s.win == nil) || (s.n == 0 && s.off != 0) {
		t.Fatalf("window header inconsistent: off=%d n=%d win=%p", s.off, s.n, s.win)
	}
	if s.lo == s.hi {
		if *s != (RunSet{}) {
			t.Fatalf("empty run with lo=%d hi=%d n=%d", s.lo, s.hi, s.n)
		}
		return
	}
	if s.lo > s.hi {
		t.Fatalf("run [%d,%d) inverted", s.lo, s.hi)
	}
	if len(win) > 0 && (win[0] == 0 || win[len(win)-1] == 0) {
		t.Fatalf("window of %v not trimmed: %x", s, win)
	}
	for j, w := range win {
		if w&runMask(s.lo, s.hi, s.off+uint32(j)) != 0 {
			t.Fatalf("window of %v holds bits of its run [%d,%d)", s, s.lo, s.hi)
		}
	}
	w := RunSet{off: s.off, n: s.n, win: s.win} // the window alone
	if w.Contains(int(s.hi)) || w.Contains(int(s.lo)-1) {
		t.Fatalf("run [%d,%d) of %v is not maximal", s.lo, s.hi, s)
	}
	if got, max := s.MemBytes(), flatBytes(s.IDs()); got > max {
		t.Fatalf("%v counts %d bytes, flat encoding %d", s, got, max)
	}
}

// checkSame fails unless s and the flat reference hold the same members
// and answer the same way.
func checkSame(t testing.TB, s *RunSet, ref *Set) {
	t.Helper()
	checkNormal(t, s)
	ids := ref.IDs()
	if got := s.IDs(); !slices.Equal(got, ids) {
		t.Fatalf("members %v, reference %v", got, ids)
	}
	if s.Len() != len(ids) || s.Empty() != (len(ids) == 0) {
		t.Fatalf("Len %d Empty %v for %v", s.Len(), s.Empty(), ids)
	}
	for _, id := range ids {
		for _, probe := range []int{id - 1, id, id + 1} {
			if s.Contains(probe) != ref.Contains(probe) {
				t.Fatalf("Contains(%d) = %v on %v", probe, s.Contains(probe), ids)
			}
		}
	}
	for _, id := range outOfRange() {
		if s.Contains(id) {
			t.Fatalf("out-of-range id %d reported present", id)
		}
	}
}

// outOfRange returns ids outside a RunSet's range [0, math.MaxInt32]: the
// negative ones, and on 64-bit platforms 1<<31, the first past the range,
// and math.MaxInt. A 32-bit int has no positive id past the range.
func outOfRange() []int {
	ids := []int{-1, math.MinInt}
	if math.MaxInt > math.MaxInt32 {
		ids = append(ids, math.MaxInt>>32+1, math.MaxInt)
	}
	return ids
}

// runProgram interprets prog as a sequence of 4-byte operations over four
// slots, each a RunSet beside its flat reference Set (both nil at
// first), and checks them against each other after every step. Slots
// alias exactly when MergeShared returns an operand, on both sides, so
// the pointer-sharing result is compared too — and Add through one alias
// must then show through the other, as it does for the flat set.
func runProgram(t testing.TB, prog []byte, arena bool) {
	var sets [4]*RunSet
	var refs [4]*Set
	var ar *Arena // nil: windows on the heap
	if arena {
		ar = &Arena{}
		defer ar.Release()
	}
	add := func(i, id int) {
		if sets[i] == nil {
			sets[i], refs[i] = new(RunSet), new(Set)
		}
		sets[i].Add(id)
		refs[i].Add(id)
	}
	for ; len(prog) >= 4; prog = prog[4:] {
		op, a, b, c := prog[0]%8, int(prog[1]%4), int(prog[2]), int(prog[3])
		x, y := b%4, c%4
		switch op {
		case 0: // one id, anywhere in the first 67 words
			add(a, b+wordBits*(c%67))
		case 1: // a dense run
			for id := 3 * b; id < 3*b+c%97; id++ {
				add(a, id)
			}
		case 2: // alternating ids: the worst case for a run
			for k := 0; k < c%40; k++ {
				add(a, b+2*k)
			}
		case 3:
			sets[a], refs[a] = UnionIn(ar, sets[x], sets[y]), Union(refs[x], refs[y])
		case 4:
			id := 5 * c
			sets[a] = UnionAddIn(ar, sets[a], sets[x], id)
			refs[a] = Union(refs[a], refs[x])
			refs[a].Add(id)
		case 5:
			m, alloc := MergeSharedIn(ar, sets[x], sets[y])
			rm, ralloc := MergeShared(refs[x], refs[y])
			if alloc != ralloc || (m == sets[x]) != (rm == refs[x]) || (m == sets[y]) != (rm == refs[y]) {
				t.Fatalf("MergeSharedIn(%v, %v): alloc=%v shares x=%v y=%v; reference alloc=%v x=%v y=%v",
					sets[x], sets[y], alloc, m == sets[x], m == sets[y], ralloc, rm == refs[x], rm == refs[y])
			}
			sets[a], refs[a] = m, rm
		case 6:
			if got, want := sets[x].Subsumes(sets[y]), refs[x].Subsumes(refs[y]); got != want {
				t.Fatalf("%v.Subsumes(%v) = %v", sets[x], sets[y], got)
			}
			if got, want := sets[x].Equal(sets[y]), refs[x].Equal(refs[y]); got != want {
				t.Fatalf("%v.Equal(%v) = %v", sets[x], sets[y], got)
			}
		case 7:
			sets[a], refs[a] = nil, nil
		}
		for i := range sets {
			checkSame(t, sets[i], refs[i])
		}
	}
}

// adversaries are the shapes that stress normalisation, as programs for
// runProgram.
var adversaries = map[string][]byte{
	"alternating ids": {
		2, 0, 10, 39, // slot 0: 10, 12, …, 86
		2, 1, 11, 39, // slot 1: 11, 13, …, 87
		3, 2, 0, 1, // their union is the run [10, 88)
		5, 3, 2, 0,
	},
	"two far-apart runs": {
		1, 0, 0, 50, // [0, 50)
		1, 1, 250, 90, // [750, 840)
		3, 2, 0, 1,
		3, 3, 1, 0,
		6, 0, 2, 3,
		5, 0, 2, 1,
	},
	"residue bit closes the gap": {
		1, 0, 0, 20, // run [0, 20)
		0, 0, 21, 0, // residue 21, 22, 23
		0, 0, 22, 0,
		0, 0, 23, 0,
		4, 0, 3, 4, // ∪ {20}: the run must swallow the window, [0, 24)
		1, 1, 30, 40, // [90, 130) in slot 1 …
		0, 1, 24, 1, // … with residue 88
		0, 1, 25, 1, // 89: absorbed downwards across nothing but bits
		5, 2, 0, 1,
	},
	"adjoining runs": {
		1, 0, 0, 96, // [0, 96)
		1, 1, 32, 96, // [96, 192)
		1, 2, 64, 64, // [192, 256)
		3, 3, 0, 2, // [0,96) ∪ [192,256): two runs
		3, 3, 3, 1, // the middle one arrives: one run [0, 256)
		5, 0, 3, 1,
		6, 0, 3, 0,
	},
	"empty and nil operands": {
		3, 0, 1, 2, // nil ∪ nil
		5, 1, 2, 3, // MergeShared(nil, nil) stays nil
		4, 2, 3, 0, // nil ∪ nil ∪ {0}
		5, 3, 2, 1, // x with nil shares x
		5, 3, 1, 2,
		6, 0, 1, 2,
		6, 0, 2, 1,
		7, 2, 0, 0,
		1, 2, 9, 0, // a run of length 0 leaves the slot nil
		3, 0, 0, 0, // union of an empty non-nil set with itself
		6, 0, 0, 1,
	},
}

func TestRunSetAdversaries(t *testing.T) {
	for name, prog := range adversaries {
		t.Run(name, func(t *testing.T) {
			runProgram(t, prog, false)
			runProgram(t, prog, true)
		})
	}
}

// TestRunSetAgainstFlatRandom drives random programs; the fuzz target
// below explores further from the same interpreter.
func TestRunSetAgainstFlatRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 400; i++ {
		prog := make([]byte, 4*(1+rng.Intn(40)))
		rng.Read(prog)
		runProgram(t, prog, i%2 == 0)
	}
}

func FuzzRunSetAgainstFlat(f *testing.F) {
	for _, prog := range adversaries {
		f.Add(prog, true)
	}
	f.Fuzz(func(t *testing.T, prog []byte, arena bool) {
		if len(prog) > 4*64 {
			prog = prog[:4*64]
		}
		runProgram(t, prog, arena)
	})
}

// TestRunSetChainCopiesNoWords is the construction the type exists for:
// gp(g) = gp(u) ∪ gp(last(F)) ∪ {F} down a get-chain stays one run and
// never draws a word, at any length.
func TestRunSetChainCopiesNoWords(t *testing.T) {
	ar := &Arena{}
	var gp *RunSet
	for id := 1; id <= 5000; id++ {
		gp = UnionAddIn(ar, gp, gp, id)
		if gp.MemBytes() != 0 {
			t.Fatalf("chain set at id %d owns %d bytes", id, gp.MemBytes())
		}
	}
	if gp.Len() != 5000 || !gp.Contains(1) || !gp.Contains(5000) || gp.Contains(0) || ar.Bytes() != 0 {
		t.Fatalf("chain set %d members, arena %d bytes", gp.Len(), ar.Bytes())
	}
}

// TestRunSetHeaderSize pins a RunSet's header at four 32-bit bounds and
// its window pointer: 24 bytes on 64-bit platforms, no more than the flat
// Set's slice header. On 32-bit ones the bounds make it 20 to the slice
// header's 12.
func TestRunSetHeaderSize(t *testing.T) {
	ptr := int(unsafe.Sizeof(uintptr(0)))
	if want := 16 + ptr; RunSetHeaderBytes != want || ptr == 8 && RunSetHeaderBytes > int(unsafe.Sizeof(Set{})) {
		t.Fatalf("RunSet header %d B, its fields add up to %d; flat Set header %d B", RunSetHeaderBytes, want, unsafe.Sizeof(Set{}))
	}
}

func TestRunSetAddOutOfRangePanics(t *testing.T) {
	for _, id := range outOfRange() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) did not panic", id)
				}
			}()
			new(RunSet).Add(id)
		}()
	}
}

func BenchmarkRunSetGetChain(b *testing.B) {
	var gp *RunSet
	for i := 0; i < b.N; i++ {
		gp = UnionAddIn(nil, gp, gp, i+1)
	}
}

func BenchmarkRunSetMergeDivergent(b *testing.B) {
	x := NewRunSet(1, 100, 500)
	y := NewRunSet(2, 300, 900)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeSharedIn(nil, x, y)
	}
}
