// Package depa implements DePa-style fork-path labels (Westrick,
// Fluet, Acar: "DePa: Simple, Provably Efficient, and Practical Order
// Maintenance for Task Parallelism"), the relabeling-free alternative
// to the English/Hebrew order-maintenance lists of internal/om.
//
// Every strand carries one immutable bit-string label: the path of
// fork decisions from the root of the spawn/create tree, one 2-bit
// component per branch point. At a spawn the child appends Child, the
// continuation appends Cont, and the (eagerly placed) sync placeholder
// appends Sync; a get strand appends Child to its predecessor. Because
// the detector anchors at most one placement batch at any strand, no
// two strands share a label, and the lexicographic order of the labels
// reproduces the English total order exactly — while the same
// comparison with Child and Cont swapped reproduces the Hebrew order.
// One comparison therefore answers both u ⊏E v and u ⊏H v, i.e. a
// whole psp query.
//
// A Label is a prefix-sharing cord: a pointer to an immutable chain of
// frozen full words — one chunk node per 32 components, shared
// structurally with every ancestor — plus one private, partially filled
// tail word. Extend copies only the tail (and freezes it into a new
// chunk when it fills), so building n strands costs O(n) words total
// instead of the O(n × depth) a flat copy pays, and Rel skips the whole
// common prefix by chunk pointer equality: because chunks below the fork
// point of two strands are the *same* nodes, the first chunk pair that
// is not pointer-equal is exactly the word containing the first
// divergent component, and every comparison inspects one word.
//
// The payoff over OM is structural: labels are assigned once
// and never touched again, so there are no bucket splits, no
// renumberings, no maintenance lock, and no label space to exhaust.
package depa

import (
	"math/bits"
	"unsafe"

	"sforder/internal/slab"
)

// Fork-path components, 2 bits each. Zero is reserved as padding so a
// shorter label compares before every extension of it in both orders.
const (
	Child uint8 = 1 // spawned child / created future's first strand
	Cont  uint8 = 2 // continuation of the forking strand
	Sync  uint8 = 3 // eagerly placed sync placeholder of the region
)

// compsPerWord is how many 2-bit components a label word holds; the
// first component of a word occupies its top bits.
const compsPerWord = 32

// hebOrd maps a component to its rank in the Hebrew order: at a branch
// point the continuation (and everything under it) comes before the
// child's subtree, i.e. Child and Cont swap; Sync stays last and the
// zero padding stays first.
var hebOrd = [4]uint8{0, 2, 1, 3}

// ---------------------------------------------------------------------
// Cord labels: frozen chunk chain + private tail word.

// chunk is one frozen, full label word: 32 components that will never
// change, linked to the chunks before it. Chunks are shared — every
// descendant of the strand whose Extend froze this word points at the
// same node — which is what makes prefix skipping by pointer equality
// sound (see Rel).
type chunk struct {
	prev *chunk
	word uint64
	idx  uint32 // position of this word in the label: chain length - 1
}

// Label is one strand's fork path as a prefix-sharing cord: all full
// words live in the shared frozen chain, the (strictly fewer than 32)
// remaining components in the private tail word, packed from the top
// with zero padding below. Labels are immutable after Extend returns
// them, so readers never synchronize. The component count is derived,
// not stored: the chain length gives the full words and the tail's
// lowest used bit gives the remainder, keeping the header two words.
type Label struct {
	frozen *chunk
	tail   uint64
}

// LabelBytes and ChunkBytes are the allocation sizes the substrate's
// memory accounting uses: one LabelBytes per strand, one ChunkBytes per
// frozen word — counted once at the freeze, never again by the many
// labels that share the chunk.
var (
	LabelBytes = int(unsafe.Sizeof(Label{}))
	ChunkBytes = int(unsafe.Sizeof(chunk{}))
)

// tailComps returns how many components a tail word holds. Components
// are nonzero and packed from the top, so the lowest used bit position
// determines the count; an empty tail is zero.
func tailComps(tail uint64) int {
	return (65 - bits.TrailingZeros64(tail)) / 2
}

// FullWords returns the number of frozen full words (the chunk-chain
// length).
func (l *Label) FullWords() int {
	if l.frozen == nil {
		return 0
	}
	return int(l.frozen.idx) + 1
}

// Depth returns the number of components (the strand's fork depth).
func (l *Label) Depth() int {
	return compsPerWord*l.FullWords() + tailComps(l.tail)
}

// MemBytes returns the label's own footprint: the two-word header. The
// frozen chain is shared and accounted once per chunk at the Extend
// that froze it (ChunkBytes), not per label pointing at it.
func (l *Label) MemBytes() int { return LabelBytes }

// NewLabel returns the empty root label, allocated from a (heap when a
// is nil).
func NewLabel(a *Arena) *Label { return a.label() }

// Extend returns a new label that appends component c to l. l is not
// modified. Only the tail word is copied; when it fills (the 32nd
// component), it freezes into a new chunk node pushed onto l's chain,
// and the new label starts an empty tail. O(1) worst case: the frozen
// prefix is shared, never copied.
func (l *Label) Extend(a *Arena, c uint8) *Label {
	out := a.label()
	r := tailComps(l.tail)
	w := l.tail | uint64(c)<<(62-2*uint(r))
	if r == compsPerWord-1 {
		idx := uint32(0)
		if l.frozen != nil {
			idx = l.frozen.idx + 1
		}
		out.frozen = a.chunk(l.frozen, w, idx)
		out.tail = 0
	} else {
		out.frozen = l.frozen
		out.tail = w
	}
	return out
}

// Rel compares two cord labels in both total orders at once: eng
// reports a ⊏E b (a strictly before b in the English order) and heb
// reports a ⊏H b. Equal labels yield false, false. cmpWords is the
// number of word pairs whose contents were examined, the "compare
// depth" stat. Lock-free: labels and chunks are immutable.
//
// The shared prefix is skipped by pointer equality instead of being
// compared. In detector use every label descends from one root via
// Extend, so chunks below the fork point of two strands are the *same*
// nodes: the lockstep walk toward the root stops the moment the chains
// become pointer-equal, having examined only the chunks frozen after
// the fork — O(depth below the LCA / 32) words, typically one, however
// deep the labels are. Rel stays correct without that sharing
// (content-equal chunks that are distinct nodes compare equal and the
// walk continues), it is just no longer sublinear.
//
// Where the chains have different lengths, the pair at the boundary
// index — the deeper chain's word against the shallower label's tail —
// always differs (a full word carries 32 nonzero components, a tail at
// most 31), so deeper words of the longer chain are never decisive and
// only the equal-length region below the boundary needs walking.
func Rel(a, b *Label) (eng, heb bool, cmpWords int) {
	wa, wb, cmpWords := diverge(a, b)
	x := wa ^ wb
	if x == 0 {
		// No word pair differs anywhere: the labels are identical.
		return false, false, cmpWords
	}
	// First differing component: the 2-bit field holding x's top set bit.
	sh := 62 - uint(bits.LeadingZeros64(x))&^1
	qa := wa >> sh & 3
	qb := wb >> sh & 3
	return qa < qb, hebOrd[qa] < hebOrd[qb], cmpWords
}

// diverge is the LCA-skip walk shared by Rel and LeftOf: it returns the
// shallowest differing word pair of the two cords (wa == wb means the
// labels are identical) and the number of word pairs examined.
func diverge(a, b *Label) (wa, wb uint64, cmpWords int) {
	wa, wb = a.tail, b.tail // divergence candidate, shallowest known
	cmpWords = 1
	if ca, cb := a.frozen, b.frozen; ca != cb {
		// Descend the deeper chain to the shallower's length, capturing
		// the boundary word that pairs with the shallower's tail.
		for ca != nil && (cb == nil || ca.idx > cb.idx) {
			if cb == nil && ca.idx == 0 || cb != nil && ca.idx == cb.idx+1 {
				wa = ca.word
			}
			ca = ca.prev
		}
		for cb != nil && (ca == nil || cb.idx > ca.idx) {
			if ca == nil && cb.idx == 0 || ca != nil && cb.idx == ca.idx+1 {
				wb = cb.word
			}
			cb = cb.prev
		}
		// Lockstep toward the root, keeping the shallowest differing
		// pair; pointer equality means everything below is shared.
		for ca != cb {
			cmpWords++
			if ca.word != cb.word {
				wa, wb = ca.word, cb.word
			}
			ca, cb = ca.prev, cb.prev
		}
	}
	return wa, wb, cmpWords
}

// LeftOf reports a ⊏E b alone — the English-order query the ReadersLR
// reader policy asks (§3.5 leftmost/rightmost maintenance). It reuses
// the same LCA-skip walk as Rel, stopping at pointer-equal chunks, and
// decides from the single divergent component without the Hebrew remap.
// cmpWords counts the word pairs examined (depa.compare_words).
func LeftOf(a, b *Label) (left bool, cmpWords int) {
	wa, wb, cmpWords := diverge(a, b)
	x := wa ^ wb
	if x == 0 {
		return false, cmpWords
	}
	sh := 62 - uint(bits.LeadingZeros64(x))&^1
	return wa>>sh&3 < wb>>sh&3, cmpWords
}

// ---------------------------------------------------------------------
// Arena.

// Arena allocates cord labels and their frozen chunk nodes from slabs, so
// internal/core's per-worker lanes hand out DePa labels with a pointer
// bump and recycle them wholesale. Single-owner: not safe for concurrent
// use. A nil *Arena is valid and falls back to the heap (callers without
// lane state).
type Arena struct {
	labels slab.Arena[Label]
	chunks slab.Arena[chunk]
}

var (
	labelPool = slab.NewPool[Label](256) // 256 × 16 B = 4 KiB of cord labels per slab
	chunkPool = slab.NewPool[chunk](256) // 256 × 24 B = 6 KiB of frozen chunk nodes
)

func (a *Arena) label() *Label {
	if a == nil {
		return &Label{}
	}
	l := a.labels.Get(labelPool)
	*l = Label{}
	return l
}

func (a *Arena) chunk(prev *chunk, word uint64, idx uint32) *chunk {
	var c *chunk
	if a == nil {
		c = new(chunk)
	} else {
		c = a.chunks.Get(chunkPool)
	}
	c.prev, c.word, c.idx = prev, word, idx
	return c
}

// Bytes reports the slab bytes currently held by the arena.
func (a *Arena) Bytes() int64 {
	if a == nil {
		return 0
	}
	return a.labels.Bytes() + a.chunks.Bytes()
}

// Release returns every slab to the shared pools for reuse by a later
// run. The caller must guarantee no Label or chunk chain allocated from
// this arena is referenced afterwards: a recycled slab will be handed
// out again.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	a.labels.Release()
	a.chunks.Release()
}
