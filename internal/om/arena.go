package om

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// itemChunkLen is the number of Items per arena slab. 512 items at 24
// bytes each is a 12 KiB slab: big enough to amortize the pool round
// trip, small enough that a mostly-idle lane wastes little.
const itemChunkLen = 512

type itemChunk struct{ items [itemChunkLen]Item }

// itemChunkPool recycles slabs across runs; chunks re-enter it only via
// ItemArena.Release.
var itemChunkPool = sync.Pool{New: func() any { return new(itemChunk) }}

// ItemArena is a slab (bump) allocator for Items, used by the per-worker
// lane arenas of internal/core so the reach hot path allocates dag
// positions with a pointer bump instead of a heap allocation. An arena
// is single-owner: not safe for concurrent use. A nil *ItemArena is
// valid and falls back to the heap, which is what callers without lane
// state use.
type ItemArena struct {
	cur    *itemChunk
	next   int
	chunks []*itemChunk
	bytes  atomic.Int64 // slab bytes held; atomic so gauges scrape mid-run
}

// get returns the next Item from the arena (heap-allocated when a is
// nil). The item's fields are set by the insert that places it, so no
// zeroing is needed: an item is never published before its label,
// bucket, and slot are stored.
func (a *ItemArena) get() *Item {
	if a == nil {
		return &Item{}
	}
	if a.cur == nil || a.next == itemChunkLen {
		a.cur = itemChunkPool.Get().(*itemChunk)
		a.chunks = append(a.chunks, a.cur)
		a.next = 0
		a.bytes.Add(int64(unsafe.Sizeof(itemChunk{})))
	}
	it := &a.cur.items[a.next]
	a.next++
	return it
}

// Bytes reports the slab bytes currently held by the arena.
func (a *ItemArena) Bytes() int64 {
	if a == nil {
		return 0
	}
	return a.bytes.Load()
}

// Release returns every slab to the shared pool for reuse by a later
// run. The caller must guarantee no Item allocated from this arena is
// referenced afterwards: a recycled slab will be handed out again.
func (a *ItemArena) Release() {
	if a == nil {
		return
	}
	for i, c := range a.chunks {
		a.chunks[i] = nil
		itemChunkPool.Put(c)
	}
	a.chunks = a.chunks[:0]
	a.cur, a.next = nil, 0
	a.bytes.Store(0)
}
