package core

import (
	"sforder/internal/bitset"
	"sforder/internal/depa"
	"sforder/internal/slab"
)

// Slab arenas for the reach hot path. Every spawn/create/get allocates
// per-strand records (the substrate's node, its position inline), cord
// labels under DePa, and (for a create/get/merge whose set is not a
// single run) residue-window words; drawing them from per-lane slabs
// turns those heap allocations into pointer bumps and lets a finished Run
// recycle the memory wholesale through sync.Pool instead of leaving it
// to the GC.

var metaPool = slab.NewPool[futMeta](64) // futures are ~1000× rarer than strands

// laneAlloc is one lane's allocation state: arenas for the substrate's
// strand records and labels, future records, and set-window words. Only
// the active substrate's arenas fill. The engine guarantees a lane is
// never used by two workers at once (sched.LaneTracer contract); the
// shared fallback lane — used when the Reach is driven through a
// MultiTracer or other non-lane path — is serialized by Reach.sharedMu.
type laneAlloc struct {
	omNodes   slab.Arena[omNode]   // OM substrate: strand records
	depaNodes slab.Arena[depaNode] // DePa substrate: strand records
	labels    depa.Arena           // DePa substrate: fork-path labels
	metas     slab.Arena[futMeta]
	sets      bitset.Arena
}

// newMeta returns a zeroed future record from the lane's slab.
func (a *laneAlloc) newMeta() *futMeta {
	m := a.metas.Get(metaPool)
	*m = futMeta{}
	return m
}

func (a *laneAlloc) bytes() int64 {
	return a.omNodes.Bytes() + a.depaNodes.Bytes() + a.labels.Bytes() +
		a.metas.Bytes() + a.sets.Bytes()
}

func (a *laneAlloc) release() {
	a.omNodes.Release()
	a.depaNodes.Release()
	a.labels.Release()
	a.metas.Release()
	a.sets.Release()
}
