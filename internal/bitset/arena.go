package bitset

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// arenaPageWords is the number of uint64 words per arena page (32 KiB).
// Only a RunSet with a residue window draws words, a handful each (one
// word covers 64 future IDs), so a page serves thousands of sets.
const arenaPageWords = 4096

type arenaPage struct{ words [arenaPageWords]uint64 }

// arenaPagePool recycles pages across runs; pages re-enter it only via
// Arena.Release.
var arenaPagePool = sync.Pool{New: func() any { return new(arenaPage) }}

// Arena is a bump allocator for RunSet windows, used by the per-worker
// lane arenas of internal/core so a gp/cp set that needs residue words
// gets them by a pointer bump (UnionIn, UnionAddIn, MergeSharedIn).
// Single-owner: not safe for concurrent use. A nil *Arena is valid and
// falls back to the heap.
//
// A window is sized exactly and never grows in place (RunSet.Add builds
// a new one), so page neighbours cannot overwrite each other.
type Arena struct {
	cur   *arenaPage
	next  int
	pages []*arenaPage
	bytes atomic.Int64 // bytes handed out or held in pages; atomic so gauges scrape mid-run
}

// alloc returns a word slice of length n for the caller to fill (a
// recycled page is not cleared). A request larger than a page goes to
// the heap and still counts toward Bytes; a nil arena sends everything
// to the heap and counts nothing.
func (a *Arena) alloc(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	if n > arenaPageWords {
		a.bytes.Add(int64(8 * n))
		return make([]uint64, n)
	}
	if a.cur == nil || a.next+n > arenaPageWords {
		a.cur = arenaPagePool.Get().(*arenaPage)
		a.pages = append(a.pages, a.cur)
		a.next = 0
		a.bytes.Add(int64(unsafe.Sizeof(arenaPage{})))
	}
	w := a.cur.words[a.next : a.next+n : a.next+n]
	a.next += n
	return w
}

// Bytes reports the bytes the arena holds: its pages plus every
// over-page window it sent to the heap.
func (a *Arena) Bytes() int64 {
	if a == nil {
		return 0
	}
	return a.bytes.Load()
}

// Release returns every page to the shared pool for reuse by a later
// run. The caller must guarantee no RunSet whose window came from this
// arena is referenced afterwards.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	for i, p := range a.pages {
		a.pages[i] = nil
		arenaPagePool.Put(p)
	}
	a.pages = a.pages[:0]
	a.cur, a.next = nil, 0
	a.bytes.Store(0)
}
