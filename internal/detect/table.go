package detect

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"sforder/internal/sched"
)

// table is the access history's shadow memory, the paper's layout (§4): a
// two-level table that acts like a direct-mapped cache. The first level
// is a fixed-size directory indexed by a hash of the page number; the
// second level is a page of location slots indexed directly by the
// address's low bits. Each page carries one lock, so a lock covers a
// contiguous subset of the history — the paper's fine-grained-locking
// granularity, and the unit the batched fast path flushes at. Directory
// collisions chain pages (the paper can evict like a real cache; a race
// detector that must not miss races cannot, so we chain).
//
// Directory slots are atomic pointers with CAS insertion at the chain
// head, so page lookup — once per flushed batch, or per access on the
// locked path — is lock-free; only a losing CAS (two workers creating the
// same page at once) retries.
// A page's num and next fields are immutable once the page is published,
// so chain walks need no synchronization beyond the slot load.
//
// A slot points to its location's record, allocated on first touch: a
// pointer-keyed program (ShadowAddr, stride 8) or a small one populates a
// fraction of a page's slots, and records held inline would charge it
// for all 256.
type table struct {
	dir [1 << dirBits]atomic.Pointer[page]
}

const (
	dirBits  = 12 // 4096 directory slots
	pageBits = 8  // 256 locations per page
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

type page struct {
	mu    sync.Mutex
	num   uint64            // addr >> pageBits
	next  *page             // directory-collision chain; immutable after publication
	slots [pageSize]*record // guarded by mu
}

// record is the access-history metadata of one memory location. Every
// field is read and written only under the page lock.
type record struct {
	writer  *sched.Strand   // last writer
	reader  *sched.Strand   // most recently recorded reader since that write
	readers []*sched.Strand // ReadersAll
	pairs   map[int]*lrPair // ReadersLR, keyed by future ID
}

type lrPair struct {
	l, r *sched.Strand
}

func dirSlot(pageNum uint64) int {
	return int((pageNum * 0x9e3779b97f4a7c15) >> (64 - dirBits))
}

// find walks the collision chain from p for the page numbered num.
func (p *page) find(num uint64) *page {
	for ; p != nil; p = p.next {
		if p.num == num {
			return p
		}
	}
	return nil
}

// pageFor finds or creates the page numbered num, lock-free: walk the
// chain, and if the page is missing CAS a new one in at the head. A lost
// CAS means another worker changed the head — rewalk (the page may now
// exist) and retry.
func (t *table) pageFor(num uint64) *page {
	sp := &t.dir[dirSlot(num)]
	for {
		head := sp.Load()
		if p := head.find(num); p != nil {
			return p
		}
		np := &page{num: num, next: head}
		if sp.CompareAndSwap(head, np) {
			return np
		}
	}
}

// record returns addr's record, creating it on first touch. The caller
// holds p.mu.
func (p *page) record(addr uint64) *record {
	slot := &p.slots[addr&pageMask]
	if *slot == nil {
		*slot = &record{}
	}
	return *slot
}

// forEach visits every populated record under its page's lock and returns
// the number of pages; used by the accounting methods, not the hot path.
func (t *table) forEach(fn func(*record)) (pages int) {
	for i := range t.dir {
		for p := t.dir[i].Load(); p != nil; p = p.next {
			pages++
			p.mu.Lock()
			for _, r := range p.slots[:] {
				if r != nil {
					fn(r)
				}
			}
			p.mu.Unlock()
		}
	}
	return pages
}

// The accounting sizes are the real struct sizes, so MemBytes cannot
// drift as the structs evolve (sizes_test.go pins the expected values).
const (
	pageBytes   = int(unsafe.Sizeof(page{}))
	recordBytes = int(unsafe.Sizeof(record{}))
	pairBytes   = int(unsafe.Sizeof(lrPair{}))
	ptrBytes    = int(unsafe.Sizeof(uintptr(0)))
)

// memBytes is the table's heap footprint: the directory, every page,
// every record with its reader slice at capacity, and the LR pairs (their
// map's buckets are not modelled).
func (t *table) memBytes() int {
	total := 0
	pages := t.forEach(func(r *record) {
		total += recordBytes + ptrBytes*cap(r.readers) + pairBytes*len(r.pairs)
	})
	return total + int(unsafe.Sizeof(*t)) + pages*pageBytes
}
