package core

import (
	"sforder/internal/bitset"
	"sforder/internal/depa"
	"sforder/internal/om"
	"sforder/internal/slab"
)

// Slab arenas for the reach hot path. Every spawn/create/get allocates
// per-strand node records, OM items or labels, and (for a
// create/get/merge whose set is not a single run) residue-window words;
// drawing them from per-lane slabs turns those heap allocations into
// pointer bumps and lets a finished Run recycle the memory wholesale
// through sync.Pool instead of leaving it to the GC.

var (
	nodePool = slab.NewPool[node](256)   // 256 × 24 B = 6 KiB per slab
	metaPool = slab.NewPool[futMeta](64) // futures are ~1000× rarer than strands
)

// laneAlloc is one lane's allocation state: arenas for OM items, node
// and future records, and set-window words. The engine guarantees a lane is
// never used by two workers at once (sched.LaneTracer contract); the
// shared fallback lane — used when the Reach is driven through a
// MultiTracer or other non-lane path — is serialized by Reach.sharedMu.
type laneAlloc struct {
	items  om.ItemArena // OM substrate: dag position items
	labels depa.Arena   // DePa substrate: fork-path labels
	nodes  slab.Arena[node]
	metas  slab.Arena[futMeta]
	sets   bitset.Arena
}

// newNode and newMeta return zeroed records from the lane's slabs; a nil
// lane (out-of-lane callers, the offline rebuild) allocates from the heap,
// as the arenas themselves do for nil receivers.
func (a *laneAlloc) newNode() *node {
	if a == nil {
		return &node{}
	}
	n := a.nodes.Get(nodePool)
	*n = node{}
	return n
}

func (a *laneAlloc) newMeta() *futMeta {
	if a == nil {
		return &futMeta{}
	}
	m := a.metas.Get(metaPool)
	*m = futMeta{}
	return m
}

func (a *laneAlloc) bytes() int64 {
	return a.items.Bytes() + a.labels.Bytes() +
		a.nodes.Bytes() + a.metas.Bytes() + a.sets.Bytes()
}

func (a *laneAlloc) release() {
	a.items.Release()
	a.labels.Release()
	a.nodes.Release()
	a.metas.Release()
	a.sets.Release()
}

// itemsOf, labelsOf and setsOf resolve a lane's substrate and set-window
// arenas; all are nil-safe.
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
