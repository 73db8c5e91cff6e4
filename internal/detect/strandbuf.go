package detect

import (
	"math/bits"
	"unsafe"
)

// StrandBuffer is one strand's access buffer and the only place the
// same-strand subsumption rule lives: for a location l and a strand s,
//
//   - a read of l after s already read or wrote l is dropped;
//   - a write of l after s already wrote l is dropped.
//
// A write after a mere read is kept (it has to take over the last-writer
// slot and clear the readers). The rule is exact, not cached: every shadow
// page the strand touches gets a bitmap per access kind over the page's
// slots, tested and set before anything else happens to the access, and
// kept until Reset — across every Drain in between. What is kept is a
// second pair of bitmaps beside the first, so a drain hands out, per page
// lock, the set of slots read and the set of slots written and nothing per
// access. A slot in both was read before it was written (the other order
// absorbs the read); across slots the buffer keeps no order, and none is
// needed: a location's history depends on the accesses to it alone.
//
// The access history's fast path (fastpath.go) and the standalone trace
// recorder (internal/trace) both buffer through this type. A strand is
// executed by one worker at a time, so there is no synchronization; the
// zero value is ready to use.
type StrandBuffer struct {
	// front is the direct-mapped page → batch table every access goes
	// through, indexed by frontSlot. A page pushed out of its slot by
	// another moves to spill, so a strand whose pages do not collide in
	// the front never touches the map.
	front [frontSize]*pageBatch
	spill map[uint64]*pageBatch
	pages []*pageBatch // every page the strand touched, first-touch order
	dirty []*pageBatch // the pages with pending entries, first-touch order
	free  []*pageBatch // reset batches
	// pending counts the entries kept since the last Drain.
	pending int
}

const (
	// frontBits sizes the direct-mapped front, 64 slots: a leaf of the
	// blocked matrix kernels works on two to three dozen pages.
	frontBits = 6
	frontSize = 1 << frontBits
	// poolMaxPages is the most pages a strand may have touched for its
	// buffer to be worth pooling: past it the batches and the spill map's
	// buckets (a Go map does not shrink when cleared) go to the GC instead
	// of being parked forever.
	poolMaxPages = 256
)

// frontSlot hashes a page number to its front slot. The pages a strand
// works on are typically a few runs a power of two apart (the same rows of
// three matrices), which the low bits alone would map onto each other.
func frontSlot(num uint64) uint64 {
	return num * 0x9e3779b97f4a7c15 >> (64 - frontBits)
}

// pageBatch is a strand's footprint on one shadow page: which accesses
// there it has already made one to subsume, and which it has kept since
// the last drain.
type pageBatch struct {
	num uint64 // page number
	// covered[k] has one bit per slot of the page, set when an access of
	// kind k to that slot is subsumed: a read sets the slot's bit in
	// covered[AccessRead], a write sets it in both.
	covered [2]SlotSet
	// pending[k] holds the slots with an access of kind k kept since the
	// last drain.
	pending [2]SlotSet
	queued  bool // on the dirty list
	spilled bool // in the spill map
}

// pageBatchBytes is all a touched page costs its strand, however many
// accesses it makes there (strandbuf_test.go pins the bound).
const pageBatchBytes = int(unsafe.Sizeof(pageBatch{}))

// Add notes one access and reports whether it was kept: false means an
// earlier access of the same strand subsumes it and nothing was stored.
func (b *StrandBuffer) Add(addr uint64, kind AccessKind) bool {
	pb := b.front[frontSlot(addr>>pageBits)]
	if pb == nil || pb.num != addr>>pageBits {
		pb = b.frontMiss(addr >> pageBits)
	}
	w, bit := addr&pageMask>>6, uint64(1)<<(addr&63)
	if pb.covered[kind&1][w]&bit != 0 {
		return false
	}
	pb.covered[AccessRead][w] |= bit
	if kind == AccessWrite {
		pb.covered[AccessWrite][w] |= bit
	}
	pb.pending[kind&1][w] |= bit
	if !pb.queued {
		pb.queued = true
		b.dirty = append(b.dirty, pb)
	}
	b.pending++
	return true
}

// frontMiss finds page num's batch in the spill map, or creates it on the
// strand's first touch of the page, and installs it in the front.
func (b *StrandBuffer) frontMiss(num uint64) *pageBatch {
	var pb *pageBatch
	if len(b.spill) > 0 {
		pb = b.spill[num]
	}
	if pb == nil {
		if n := len(b.free); n > 0 {
			pb, b.free = b.free[n-1], b.free[:n-1]
		} else {
			pb = &pageBatch{}
		}
		pb.num = num
		b.pages = append(b.pages, pb)
	}
	slot := &b.front[frontSlot(num)]
	if old := *slot; old != nil && !old.spilled {
		if b.spill == nil {
			b.spill = map[uint64]*pageBatch{}
		}
		b.spill[old.num], old.spilled = old, true
	}
	*slot = pb
	return pb
}

// appendSet appends the addresses of page's slots in set to addrs, in slot
// order, and kind once for each to kinds.
func appendSet(addrs []uint64, kinds []AccessKind, page uint64, set *SlotSet, kind AccessKind) ([]uint64, []AccessKind) {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			addrs = append(addrs, page<<pageBits|uint64(w<<6|bits.TrailingZeros64(word)))
			kinds = append(kinds, kind)
		}
	}
	return addrs, kinds
}

// Pending returns how many entries were kept since the last Drain.
func (b *StrandBuffer) Pending() int { return b.pending }

// Drain hands every pending entry to emit, one call per page in the order
// the pages were first touched since the last drain: the slots read and
// the slots written, a slot in both read first. emit must not retain the
// sets. The covered bitmaps stay: what the strand has touched stays
// subsumed after the drain.
func (b *StrandBuffer) Drain(emit func(page uint64, reads, writes *SlotSet)) {
	for _, pb := range b.dirty {
		emit(pb.num, &pb.pending[AccessRead], &pb.pending[AccessWrite])
		pb.pending, pb.queued = [2]SlotSet{}, false
	}
	b.dirty = b.dirty[:0]
	b.pending = 0
}

// Reset forgets the strand — bitmaps, pending entries and all — and
// reports whether the buffer is worth pooling for the next one. The work
// is proportional to the pages touched, not to the buffer's capacity.
func (b *StrandBuffer) Reset() (pool bool) {
	if len(b.pages) > poolMaxPages {
		*b = StrandBuffer{}
		return false
	}
	for _, pb := range b.pages {
		b.front[frontSlot(pb.num)] = nil
		*pb = pageBatch{}
	}
	b.free = append(b.free, b.pages...)
	b.pages, b.dirty, b.pending = b.pages[:0], b.dirty[:0], 0
	clear(b.spill)
	return true
}
