// Package accbuf is the strand-local access buffer, below sched so that a
// strand owns its buffer by type (Strand.Buf) and Task.Read/Write test it.
package accbuf

import (
	"math/bits"
	"sync"
)

// AccessKind is a read or a write.
type AccessKind uint8

const (
	AccessRead AccessKind = iota
	AccessWrite
)

func (k AccessKind) String() string {
	if k == AccessRead {
		return "read"
	}
	return "write"
}

// A shadow page, the access history's lock unit, spans 1<<PageBits addresses.
const (
	PageBits = 8
	pageMask = 1<<PageBits - 1
)

// SlotSet is a set of slots of one shadow page: bit b of word w stands for
// the address page<<PageBits | w<<6 | b.
type SlotSet = [1 << PageBits / 64]uint64

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
// kept until Release — across every Drain in between. What is kept is a
// second pair of bitmaps beside the first, so a drain hands out, per page
// lock, the set of slots read and the set of slots written and nothing per
// access. A slot in both was read before it was written (the other order
// absorbs the read); across slots the buffer keeps no order, and none is
// needed: a location's history depends on the accesses to it alone.
//
// The access history's fast path and the standalone trace recorder take a
// buffer from the pool (Get), keep it on the strand and release it at the
// strand's close. A strand is executed by one worker at a time, so there
// is no synchronization; the zero value is ready to use.
type StrandBuffer struct {
	// front is the page → batch table every access goes through, 32 sets
	// of two ways: a page is in the slot frontSlot names or in slot^1. A
	// third page of a set pushes one out to spill, so a strand whose pages
	// collide at most in pairs never touches the map.
	front   [frontSize]*pageBatch
	spill   map[uint64]*pageBatch
	pages   []*pageBatch // every page the strand touched, first-touch order
	dirty   []*pageBatch // the pages with pending entries, first-touch order
	free    []*pageBatch // reset batches
	pending int          // entries kept since the last Drain
	// Expand's scratch, dropped with the strand: no tap, no scratch.
	addrs []uint64
	kinds []AccessKind
}

const (
	// frontBits sizes the front, 64 slots: a leaf of the blocked matrix
	// kernels works on two to three dozen pages.
	frontBits = 6
	frontSize = 1 << frontBits
	// poolMaxPages is the most pages a strand may have touched for its
	// buffer to be pooled: past it the batches and the spill map's buckets
	// (a Go map does not shrink when cleared) go to the GC instead.
	poolMaxPages = 256
)

// frontSlot hashes a page number to its front slot. The pages a strand
// works on are typically a few runs a power of two apart (the same rows of
// three matrices), which the low bits alone would map onto each other.
func frontSlot(num uint64) uint64 {
	return num * 0x9e3779b97f4a7c15 >> (64 - frontBits)
}

// pageBatch is a strand's footprint on one shadow page, and all the page
// costs it (accbuf_test.go pins the size): which accesses there it has made
// one to subsume, and which it has kept since the last drain.
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

// Covered reports whether the front knows an earlier access of the strand
// to subsume this one; Add would then return false. False proves nothing
// (the page may be in the spill map). sched.Task.Read and Write make this
// test before they call the checker, so it must stay inlinable (CI checks).
func (b *StrandBuffer) Covered(addr uint64, kind AccessKind) bool {
	num := addr >> PageBits
	i := frontSlot(num)
	pb := b.front[i]
	if pb == nil || pb.num != num {
		if pb = b.front[i^1]; pb == nil || pb.num != num {
			return false
		}
	}
	return pb.covered[kind&1][addr&pageMask>>6]>>(addr&63)&1 != 0
}

// Add notes one access and reports whether it was kept: false means an
// earlier access of the same strand subsumes it and nothing was stored.
func (b *StrandBuffer) Add(addr uint64, kind AccessKind) bool {
	// batch, by hand: the compiler will not inline it, and a kept access
	// would pay the call.
	num := addr >> PageBits
	i := frontSlot(num)
	pb := b.front[i]
	if pb == nil || pb.num != num {
		if pb = b.front[i^1]; pb == nil || pb.num != num {
			pb = b.frontMiss(num)
		}
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

// AddRange notes accesses of one kind to the n addresses addr, addr+1, …
// (wrapping past the top of the address space as the addresses would) and
// returns how many it kept. The buffer ends exactly as n calls of Add in
// address order leave it — the same bitmaps, pending count and drain —
// but a page costs one lookup and a word of slots one test-and-set: the
// slots a word gains are the range's mask less what covered already holds.
func (b *StrandBuffer) AddRange(addr uint64, n int, kind AccessKind) (kept int) {
	for n > 0 {
		pb := b.batch(addr >> PageBits)
		lo := addr & pageMask
		hi := min(lo+uint64(n), 1<<PageBits) // the range's slots on this page: [lo, hi)
		added := 0
		for w := lo >> 6; w<<6 < hi; w++ {
			mask := ^uint64(0)
			if w == lo>>6 {
				mask <<= lo & 63
			}
			if end := hi - w<<6; end < 64 {
				mask &= 1<<end - 1
			}
			fresh := mask &^ pb.covered[kind&1][w]
			if fresh == 0 {
				continue
			}
			pb.covered[AccessRead][w] |= fresh
			if kind == AccessWrite {
				pb.covered[AccessWrite][w] |= fresh
			}
			pb.pending[kind&1][w] |= fresh
			added += bits.OnesCount64(fresh)
		}
		if added > 0 && !pb.queued {
			pb.queued = true
			b.dirty = append(b.dirty, pb)
		}
		b.pending += added
		kept += added
		addr += hi - lo
		n -= int(hi - lo)
	}
	return kept
}

// batch returns page num's batch, from the front or else through
// frontMiss.
func (b *StrandBuffer) batch(num uint64) *pageBatch {
	i := frontSlot(num)
	pb := b.front[i]
	if pb == nil || pb.num != num {
		if pb = b.front[i^1]; pb == nil || pb.num != num {
			pb = b.frontMiss(num)
		}
	}
	return pb
}

// frontMiss finds page num's batch in the spill map, or creates it on the
// strand's first touch of the page, and installs it in a free way of its
// set, or else in its own slot, whose page moves to the spill map.
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
	i := frontSlot(num)
	if b.front[i] != nil && b.front[i^1] == nil {
		i ^= 1
	}
	if old := b.front[i]; old != nil && !old.spilled {
		if b.spill == nil {
			b.spill = map[uint64]*pageBatch{}
		}
		b.spill[old.num], old.spilled = old, true
	}
	b.front[i] = pb
	return pb
}

// Expand returns a drained page's accesses as the lists a detect.AccessTap
// takes, reads in slot order and then writes, valid until the next call.
func (b *StrandBuffer) Expand(page uint64, reads, writes *SlotSet) ([]uint64, []AccessKind) {
	b.addrs, b.kinds = b.addrs[:0], b.kinds[:0]
	for kind, set := range [2]*SlotSet{reads, writes} {
		for w, word := range set {
			for ; word != 0; word &= word - 1 {
				b.addrs = append(b.addrs, page<<PageBits|uint64(w<<6|bits.TrailingZeros64(word)))
				b.kinds = append(b.kinds, AccessKind(kind))
			}
		}
	}
	return b.addrs, b.kinds
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

// reset forgets the strand — bitmaps, pending entries, scratch and all —
// in work proportional to the pages it touched, and reports whether the
// buffer is worth pooling for the next one.
func (b *StrandBuffer) reset() (pool bool) {
	if len(b.pages) > poolMaxPages {
		*b = StrandBuffer{}
		return false
	}
	for _, pb := range b.pages {
		i := frontSlot(pb.num)
		b.front[i], b.front[i^1] = nil, nil // whoever is there is being reset too
		*pb = pageBatch{}
	}
	b.free = append(b.free, b.pages...)
	b.pages, b.dirty, b.pending, b.addrs, b.kinds = b.pages[:0], b.dirty[:0], 0, nil, nil
	clear(b.spill)
	return true
}

// pool holds every strand buffer not on a strand.
var pool = sync.Pool{New: func() any { return new(StrandBuffer) }}

// Get returns an empty buffer for a strand's first access.
func Get() *StrandBuffer { return pool.Get().(*StrandBuffer) }

// Release forgets the strand and pools the buffer, unless the strand made
// it too big to keep. The caller has drained it and taken it off the strand.
func (b *StrandBuffer) Release() {
	if b.reset() {
		pool.Put(b)
	}
}
