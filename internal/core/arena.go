package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"sforder/internal/bitset"
	"sforder/internal/depa"
	"sforder/internal/om"
)

// Slab arenas for the reach hot path. Every spawn/create/get allocates
// per-strand node records, OM items, and (for a create/get/merge whose
// set is not a single run) residue-window words; drawing them from
// per-lane slabs turns those heap allocations into pointer bumps and
// lets a finished Run recycle the memory wholesale through sync.Pool
// instead of leaving it to the GC.

const (
	nodeChunkLen = 256 // 256 × 24 B = 6 KiB per slab
	metaChunkLen = 64  // futures are ~1000× rarer than strands
)

type nodeChunk struct{ nodes [nodeChunkLen]node }
type metaChunk struct{ metas [metaChunkLen]futMeta }

var (
	nodeChunkPool = sync.Pool{New: func() any { return new(nodeChunk) }}
	metaChunkPool = sync.Pool{New: func() any { return new(metaChunk) }}
)

// nodeSlab bump-allocates node records from pooled chunks. A nil
// *nodeSlab falls back to the heap. Single-owner; byte counters are
// atomic so stats gauges can scrape mid-run.
type nodeSlab struct {
	cur    *nodeChunk
	next   int
	chunks []*nodeChunk
	bytes  atomic.Int64
}

func (s *nodeSlab) get() *node {
	if s == nil {
		return &node{}
	}
	if s.cur == nil || s.next == nodeChunkLen {
		s.cur = nodeChunkPool.Get().(*nodeChunk)
		s.chunks = append(s.chunks, s.cur)
		s.next = 0
		s.bytes.Add(int64(unsafe.Sizeof(nodeChunk{})))
	}
	n := &s.cur.nodes[s.next]
	s.next++
	*n = node{}
	return n
}

func (s *nodeSlab) release() {
	for i, c := range s.chunks {
		s.chunks[i] = nil
		nodeChunkPool.Put(c)
	}
	s.chunks = s.chunks[:0]
	s.cur, s.next = nil, 0
	s.bytes.Store(0)
}

// metaSlab is nodeSlab for futMeta records.
type metaSlab struct {
	cur    *metaChunk
	next   int
	chunks []*metaChunk
	bytes  atomic.Int64
}

func (s *metaSlab) get() *futMeta {
	if s == nil {
		return &futMeta{}
	}
	if s.cur == nil || s.next == metaChunkLen {
		s.cur = metaChunkPool.Get().(*metaChunk)
		s.chunks = append(s.chunks, s.cur)
		s.next = 0
		s.bytes.Add(int64(unsafe.Sizeof(metaChunk{})))
	}
	m := &s.cur.metas[s.next]
	s.next++
	*m = futMeta{}
	return m
}

func (s *metaSlab) release() {
	for i, c := range s.chunks {
		s.chunks[i] = nil
		metaChunkPool.Put(c)
	}
	s.chunks = s.chunks[:0]
	s.cur, s.next = nil, 0
	s.bytes.Store(0)
}

// laneAlloc is one lane's allocation state: arenas for OM items, node
// and future records, and set-window words. The engine guarantees a lane is
// never used by two workers at once (sched.LaneTracer contract); the
// shared fallback lane — used when the Reach is driven through a
// MultiTracer or other non-lane path — is serialized by Reach.sharedMu.
type laneAlloc struct {
	items  om.ItemArena // OM substrate: dag position items
	labels depa.Arena   // DePa substrate: fork-path labels
	nodes  nodeSlab
	metas  metaSlab
	sets   bitset.Arena
}

func (a *laneAlloc) bytes() int64 {
	return a.items.Bytes() + a.labels.Bytes() +
		a.nodes.bytes.Load() + a.metas.bytes.Load() + a.sets.Bytes()
}

func (a *laneAlloc) release() {
	a.items.Release()
	a.labels.Release()
	a.nodes.release()
	a.metas.release()
	a.sets.Release()
}

// itemsOf, labelsOf and setsOf resolve a lane's substrate and set-window
// arenas; all are nil-safe (out-of-lane callers and the offline rebuild
// pass a nil lane, and the arenas themselves treat nil receivers as heap
// fallback).
func itemsOf(a *laneAlloc) *om.ItemArena {
	if a == nil {
		return nil
	}
	return &a.items
}

func labelsOf(a *laneAlloc) *depa.Arena {
	if a == nil {
		return nil
	}
	return &a.labels
}

func setsOf(a *laneAlloc) *bitset.Arena {
	if a == nil {
		return nil
	}
	return &a.sets
}
