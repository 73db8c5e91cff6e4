// Package bitset provides the two sets of small non-negative integer IDs
// the repository uses.
//
// RunSet (runset.go) is the set behind the SF-Order reachability
// structures, the gp and cp tables of the paper (§3.2): one dense run of
// consecutive future IDs plus a residue window of bitmap words for the
// members outside it, so the run-shaped sets structured futures build
// cost a fixed header instead of the paper's k-bit bitmap. It is built
// for a copy-on-write discipline: reachability maintenance shares a
// *RunSet between dag nodes via pointer as long as no divergence occurs,
// and allocates a fresh set only when two parents each contain members
// the other lacks (paper §3.4). Subsumes, UnionIn and MergeSharedIn
// implement exactly that policy, and Arena bump-allocates the windows.
//
// Set is the flat form, an append-only bitmap stored as a slice of 64-bit
// words with the same Subsumes/Union/MergeShared contract. It is the
// closure row of internal/dag (the reachability oracle) and the reference
// RunSet is tested against.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a bitmap over non-negative integer IDs. The zero value is an
// empty set ready for use.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity preallocated for IDs < hint.
func New(hint int) *Set {
	if hint <= 0 {
		return &Set{}
	}
	return &Set{words: make([]uint64, (hint+wordBits-1)/wordBits)}
}

// FromIDs builds a set containing exactly the given IDs.
func FromIDs(ids ...int) *Set {
	s := &Set{}
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Add inserts id into the set, growing the word slice as needed.
// Negative IDs are rejected with a panic: they indicate a bookkeeping bug
// in the caller (future IDs are allocated from a counter starting at 0).
func (s *Set) Add(id int) {
	if id < 0 {
		panic("bitset: negative id " + strconv.Itoa(id))
	}
	w := id / wordBits
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << uint(id%wordBits)
}

// Contains reports whether id is in the set. Absent and negative IDs
// report false; a nil receiver is an empty set.
func (s *Set) Contains(id int) bool {
	if s == nil || id < 0 {
		return false
	}
	w := id / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(id%wordBits)) != 0
}

// Len returns the number of IDs in the set (population count).
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s *Set) Empty() bool {
	if s != nil {
		for _, w := range s.words {
			if w != 0 {
				return false
			}
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	if s == nil {
		return &Set{}
	}
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// UnionWith adds every member of o to s (in place).
func (s *Set) UnionWith(o *Set) {
	if o == nil {
		return
	}
	for len(s.words) < len(o.words) {
		s.words = append(s.words, 0)
	}
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// Union returns a freshly allocated union of a and b. Nil arguments are
// treated as empty sets.
func Union(a, b *Set) *Set {
	u := a.Clone()
	u.UnionWith(b)
	return u
}

// Subsumes reports whether s ⊇ o, i.e. every member of o is in s.
// Nil sets are empty and subsumed by everything.
func (s *Set) Subsumes(o *Set) bool {
	if o == nil {
		return true
	}
	for i, w := range o.words {
		var sw uint64
		if s != nil && i < len(s.words) {
			sw = s.words[i]
		}
		if w&^sw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether the two sets have identical membership.
func (s *Set) Equal(o *Set) bool { return s.Subsumes(o) && o.Subsumes(s) }

// MergeShared implements the copy-on-write merge policy of paper §3.4:
// given the (shared, possibly nil) sets of a node's parents it returns a
// set representing their union, plus allocated=true iff a new set had to
// be created — which happens only when each input contains a member the
// other lacks. When one input subsumes the other, the subsuming pointer is
// returned as-is so the caller keeps sharing it.
func MergeShared(a, b *Set) (merged *Set, allocated bool) {
	switch {
	case a == nil && b == nil:
		return nil, false
	case a.Subsumes(b):
		return a, false
	case b.Subsumes(a):
		return b, false
	default:
		return Union(a, b), true
	}
}

// IDs returns the members of the set in ascending order.
func (s *Set) IDs() []int {
	if s == nil {
		return nil
	}
	out := make([]int, 0, s.Len())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// MemBytes returns the heap footprint of the set's payload in bytes.
// Used by the Figure 5 memory-accounting harness.
func (s *Set) MemBytes() int {
	if s == nil {
		return 0
	}
	return 8 * cap(s.words)
}

// String renders the set as "{1, 5, 9}" for debugging and test failure
// messages.
func (s *Set) String() string { return formatIDs(s.IDs()) }

func formatIDs(ids []int) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range ids {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.Itoa(id))
	}
	b.WriteByte('}')
	return b.String()
}
