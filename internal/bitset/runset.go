package bitset

import (
	"math"
	"math/bits"
	"strconv"
	"unsafe"
)

// RunSet is the set of future IDs behind SF-Order's gp and cp tables: a
// dense run [lo, hi) plus a residue window — the words [off, off+n) of
// the flat bitmap, holding only the members outside the run. The sets a
// structured-futures program builds are overwhelmingly one run of
// consecutive IDs (the ancestors of a chain, everything a pipeline stage
// has joined), and those have no window at all: a get or a merge of two
// runs reads and writes the 24-byte header and nothing else, where the
// flat bitmap copies ⌈(maxID+1)/64⌉ words.
//
// Every set is kept in one normal form, which is what makes the run
// absorb whatever touches it:
//
//   - a non-empty set has a non-empty run, and the run is maximal:
//     neither lo-1 nor hi is a member;
//   - the window has no bit inside the run, and its first and last words
//     are non-zero (so it never covers more than the flat encoding does).
//
// A RunSet is immutable once another strand can see it; Add is for the
// strand still building it. The nil *RunSet is the empty set, as for Set.
type RunSet struct {
	lo, hi uint32  // the run
	off, n uint32  // the window: flat words [off, off+n)
	win    *uint64 // first window word, nil iff n == 0
}

// RunSetHeaderBytes is the fixed per-set cost MemBytes leaves out; a
// size test pins it at the flat Set's slice header.
const RunSetHeaderBytes = int(unsafe.Sizeof(RunSet{}))

// NewRunSet builds a set containing exactly the given IDs.
func NewRunSet(ids ...int) *RunSet {
	s := new(RunSet)
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// checkID rejects IDs no future counter can produce; staying below 2³¹
// keeps hi = id+1 and every word index inside uint32.
func checkID(id int) uint32 {
	if id < 0 || id > math.MaxInt32 {
		panic("bitset: id out of range " + strconv.Itoa(id))
	}
	return uint32(id)
}

func (s *RunSet) window() []uint64 { return unsafe.Slice(s.win, s.n) }

// runMask returns the members of the run [lo, hi) that fall in flat
// word i.
func runMask(lo, hi, i uint32) uint64 {
	base := i * wordBits
	if hi <= base || lo >= base+wordBits {
		return 0
	}
	m := ^uint64(0)
	if lo > base {
		m <<= lo - base
	}
	if hi < base+wordBits {
		m &= 1<<(hi-base) - 1
	}
	return m
}

// word returns flat word i of the set: what a Set with the same members
// holds at that index.
func (s *RunSet) word(i uint32) uint64 {
	w := runMask(s.lo, s.hi, i)
	if j := i - s.off; j < s.n {
		w |= s.window()[j]
	}
	return w
}

// span returns the flat word range [first, end) holding every member.
func (s *RunSet) span() (first, end uint32) {
	if s.lo == s.hi {
		return 0, 0
	}
	first, end = s.lo/wordBits, (s.hi-1)/wordBits+1
	if s.n != 0 {
		first, end = min(first, s.off), max(end, s.off+s.n)
	}
	return first, end
}

// Contains reports whether id is in the set. Absent and negative IDs
// report false; a nil receiver is an empty set.
func (s *RunSet) Contains(id int) bool {
	if s == nil || uint(id) > math.MaxInt32 {
		return false
	}
	u := uint32(id)
	if u-s.lo < s.hi-s.lo {
		return true
	}
	j := u/wordBits - s.off
	return j < s.n && s.window()[j]&(1<<(u%wordBits)) != 0
}

// Empty reports whether the set has no members.
func (s *RunSet) Empty() bool { return s == nil || s.lo == s.hi }

// Len returns the number of IDs in the set.
func (s *RunSet) Len() int {
	if s == nil {
		return 0
	}
	n := int(s.hi - s.lo)
	for _, w := range s.window() {
		n += bits.OnesCount64(w)
	}
	return n
}

// Add inserts id, renormalising the set. It is for the strand building
// the set: a window that has to grow is reallocated on the heap.
func (s *RunSet) Add(id int) {
	one := single(checkID(id))
	if !s.Contains(id) {
		unionInto(s, nil, [3]*RunSet{s, &one})
	}
}

func single(id uint32) RunSet { return RunSet{lo: id, hi: id + 1} }

// Subsumes reports whether s ⊇ o. Nil sets are empty and subsumed by
// everything. Two runs compare in O(1).
func (s *RunSet) Subsumes(o *RunSet) bool {
	if o.Empty() {
		return true
	}
	if s.Empty() {
		return false
	}
	if o.lo < s.lo || o.hi > s.hi {
		// o's run sticks out of s's: only s's window can cover the rest.
		if s.n == 0 {
			return false
		}
		for i := o.lo / wordBits; i <= (o.hi-1)/wordBits; i++ {
			if runMask(o.lo, o.hi, i)&^s.word(i) != 0 {
				return false
			}
		}
	}
	for j, w := range o.window() {
		if w&^s.word(o.off+uint32(j)) != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether the two sets have identical membership.
func (s *RunSet) Equal(o *RunSet) bool { return s.Subsumes(o) && o.Subsumes(s) }

// unionWord is flat word i of the union of ops.
func unionWord(ops *[3]*RunSet, i uint32) uint64 {
	var w uint64
	for _, o := range ops {
		if o != nil {
			w |= o.word(i)
		}
	}
	return w
}

// unionInto stores the union of ops (nil entries are empty) in dst, in
// normal form, with any window drawn from ar. dst may be one of ops: the
// operands are read before dst's header is written, and a window is
// never updated in place.
func unionInto(dst *RunSet, ar *Arena, ops [3]*RunSet) {
	// The result's run grows from the longest operand run.
	var lo, hi uint32
	windows := false
	for _, o := range ops {
		if o == nil {
			continue
		}
		if o.hi-o.lo > hi-lo {
			lo, hi = o.lo, o.hi
		}
		windows = windows || o.n != 0
	}
	if lo == hi {
		*dst = RunSet{}
		return
	}
	// Operand runs that overlap or adjoin it coalesce without looking at
	// a word; two passes settle three operands.
	for pass := 0; pass < 2; pass++ {
		for _, o := range ops {
			if o != nil && o.lo < o.hi && o.lo <= hi && o.hi >= lo {
				lo, hi = min(lo, o.lo), max(hi, o.hi)
			}
		}
	}
	// Residue bits next to the run are absorbed a word at a time; past
	// every operand the union word is zero and the walk stops. Without a
	// window among the operands the run is already maximal.
	if windows {
		for {
			t := uint32(bits.TrailingZeros64(^(unionWord(&ops, hi/wordBits) >> (hi % wordBits))))
			hi += t
			if t == 0 || hi%wordBits != 0 {
				break
			}
		}
		for lo > 0 {
			b := lo - 1
			t := uint32(bits.LeadingZeros64(^(unionWord(&ops, b/wordBits) << (wordBits - 1 - b%wordBits))))
			lo -= t
			if t == 0 || lo%wordBits != 0 {
				break
			}
		}
	}
	// What is left outside the run comes from the operands' windows and
	// from runs that did not coalesce; with neither there is no window.
	first, end := uint32(math.MaxUint32), uint32(0)
	for _, o := range ops {
		if o == nil {
			continue
		}
		if o.n != 0 {
			first, end = min(first, o.off), max(end, o.off+o.n)
		}
		if o.lo < o.hi && (o.lo < lo || o.hi > hi) {
			first, end = min(first, o.lo/wordBits), max(end, (o.hi-1)/wordBits+1)
		}
	}
	residue := func(i uint32) uint64 { return unionWord(&ops, i) &^ runMask(lo, hi, i) }
	for first < end && residue(first) == 0 {
		first++
	}
	for first < end && residue(end-1) == 0 {
		end--
	}
	var win []uint64
	if first < end {
		win = ar.alloc(int(end - first))
		for j := range win {
			win[j] = residue(first + uint32(j))
		}
	} else {
		first = 0
	}
	*dst = RunSet{lo: lo, hi: hi, off: first, n: uint32(len(win)), win: unsafe.SliceData(win)}
}

// UnionIn returns a fresh x ∪ y with any window drawn from ar (nil: the
// heap). Nil arguments are empty sets.
func UnionIn(ar *Arena, x, y *RunSet) *RunSet {
	u := new(RunSet)
	unionInto(u, ar, [3]*RunSet{x, y})
	return u
}

// UnionAddIn returns a fresh x ∪ y ∪ {id} — the shape of both SF-Order
// construction rules, cp(G) = cp(F) ∪ {F} and gp(g) = gp(u) ∪
// gp(last(F)) ∪ {F} — in one normalisation.
func UnionAddIn(ar *Arena, x, y *RunSet, id int) *RunSet {
	one := single(checkID(id))
	u := new(RunSet)
	unionInto(u, ar, [3]*RunSet{x, y, &one})
	return u
}

// MergeSharedIn implements the copy-on-write merge policy of paper §3.4
// (see MergeShared): when one input subsumes the other that pointer is
// returned as-is so the caller keeps sharing it, and a new set — its
// window drawn from ar — is built only when each holds a member the
// other lacks.
func MergeSharedIn(ar *Arena, x, y *RunSet) (merged *RunSet, allocated bool) {
	switch {
	case x == nil && y == nil:
		return nil, false
	case x.Subsumes(y):
		return x, false
	case y.Subsumes(x):
		return y, false
	default:
		return UnionIn(ar, x, y), true
	}
}

// IDs returns the members of the set in ascending order.
func (s *RunSet) IDs() []int {
	if s == nil {
		return nil
	}
	out := make([]int, 0, s.Len())
	first, end := s.span()
	for i := first; i < end; i++ {
		for w := s.word(i); w != 0; w &= w - 1 {
			out = append(out, int(i)*wordBits+bits.TrailingZeros64(w))
		}
	}
	return out
}

// MemBytes returns the bytes of payload the set owns — its window; a
// run costs nothing beyond the header (RunSetHeaderBytes). Never more
// than the flat encoding 8·⌈(maxID+1)/64⌉ of the same members.
func (s *RunSet) MemBytes() int {
	if s == nil {
		return 0
	}
	return 8 * int(s.n)
}

// String renders the set as "{1, 5, 9}" for debugging and test failure
// messages.
func (s *RunSet) String() string { return formatIDs(s.IDs()) }
