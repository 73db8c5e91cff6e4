// Package slab is the reach layer's fixed-record bump allocator: strand
// records (their OM items inline), future records, cord labels and their
// frozen chunks all come from it, so a spawn/create/get allocates with a pointer bump
// and a finished run hands its memory back wholesale through a
// sync.Pool instead of leaving it to the GC. (bitset.Arena, the one
// variable-length allocator, is its own type.)
package slab

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Pool recycles chunks of a fixed number of T records across arenas and
// runs. One package-level Pool per record type is the intended use;
// chunks re-enter it only through Arena.Release.
type Pool[T any] struct {
	chunkBytes int64
	chunks     sync.Pool
}

// NewPool returns a pool whose chunks hold the given number of records.
func NewPool[T any](records int) *Pool[T] {
	var zero T
	p := &Pool[T]{chunkBytes: int64(records) * int64(unsafe.Sizeof(zero))}
	p.chunks.New = func() any {
		c := make([]T, records)
		return &c
	}
	return p
}

// Arena bump-allocates T records out of pooled chunks. The zero value is
// ready to use. An arena is single-owner — not safe for concurrent use —
// except Bytes, which is atomic so gauges can scrape mid-run. A nil
// *Arena is valid and allocates from the heap, which is what callers
// without lane state use.
type Arena[T any] struct {
	cur    []T // the newest chunk; records before next are handed out
	next   int
	pool   *Pool[T]
	chunks []*[]T
	bytes  atomic.Int64
}

// Get returns the next record, drawing a chunk from p when the current
// one is used up. A record from a recycled chunk holds whatever its last
// user left there: the caller assigns every field (a nil arena's heap
// record is zero). An arena draws from one pool for its whole life.
func (a *Arena[T]) Get(p *Pool[T]) *T {
	if a == nil {
		return new(T)
	}
	if a.next == len(a.cur) {
		c := p.chunks.Get().(*[]T)
		a.pool, a.cur, a.next = p, *c, 0
		a.chunks = append(a.chunks, c)
		a.bytes.Add(p.chunkBytes)
	}
	r := &a.cur[a.next]
	a.next++
	return r
}

// Bytes reports the chunk bytes the arena holds.
func (a *Arena[T]) Bytes() int64 {
	if a == nil {
		return 0
	}
	return a.bytes.Load()
}

// Release returns every chunk to the pool it came from. The caller must
// guarantee that no record of this arena is referenced afterwards: a
// recycled chunk will be handed out again.
func (a *Arena[T]) Release() {
	if a == nil {
		return
	}
	for i, c := range a.chunks {
		a.chunks[i] = nil
		a.pool.chunks.Put(c)
	}
	a.chunks = a.chunks[:0]
	a.cur, a.next = nil, 0
	a.bytes.Store(0)
}
