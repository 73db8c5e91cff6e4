package detect

// Lock-avoiding fast path of the access history (the paper's §6 future
// work: "reduce the synchronization overhead by redesigning the access
// history"). Profiling PR 2's hist.lock_acquires counter confirmed the
// paper's observation that full-mode overhead is dominated by the sheer
// volume of lock acquisitions — one per instrumented access — not by
// contention. Two mechanisms shed that volume while preserving the
// per-location detection guarantee (at least one race is reported on a
// location iff one exists there; DESIGN.md §4 has the argument):
//
//  1. Exact strand-local dedup. All accesses of one strand share a single
//     dag position, so a repeat that an earlier access of the same strand
//     subsumes (StrandBuffer states the rule) adds nothing the history
//     would retain and no verdict it has not already computed. The
//     strand's buffer drops it on a bit test, before any shared memory is
//     touched — an access either ends there or sets a second bit there.
//
//  2. Strand-scoped batching. What the buffer keeps is, per lock unit
//     (shadow page), the set of slots read and the set of slots written,
//     applied under ONE lock acquisition per page when the strand closes
//     (the sched.StrandCloser hook), or earlier once batchCap entries are
//     pending; the dedup state outlives early flushes. The page takes a
//     set whole: Algorithm 1 runs once per state the set's slots share
//     (table.go), not once per slot, so a tile row its last writer left
//     in one state costs one Precedes query. Every field of a page's
//     states is read and written under the page's lock, here as on the
//     locked path, which is the same kernel over a set of one slot.
//
// All per-strand state lives on Strand.Aux and is pooled at strand close;
// a strand is only ever executed by one worker at a time, so the access
// hot path is synchronization-free.

import (
	"sync"

	"sforder/internal/sched"
)

// batchCap bounds how many entries a strand buffers before an early flush,
// so long strands cannot defer unboundedly much work to their close.
const batchCap = 1024

// strandState is the per-strand detector payload hung off Strand.Aux: the
// access buffer and the tap's scratch.
type strandState struct {
	buf StrandBuffer
	// The tap's view of a drained page, the slot sets expanded into the
	// slices AccessTap takes; unused unless a tap is installed.
	tapAddrs []uint64
	tapKinds []AccessKind
}

var statePool = sync.Pool{New: func() any { return new(strandState) }}

// stateOf returns s's detector payload, taking one from the pool on first
// use.
func stateOf(s *sched.Strand) *strandState {
	if ss, ok := s.Aux.(*strandState); ok {
		return ss
	}
	return newState(s)
}

// newState is kept out of line so that stateOf inlines into the access
// hot path.
//
//go:noinline
func newState(s *sched.Strand) *strandState {
	ss := statePool.Get().(*strandState)
	s.Aux = ss
	return ss
}

// fastAccess is the lock-avoiding access path: the strand's buffer drops
// the access if an earlier one of the same strand subsumes it, and keeps
// it for the flush otherwise.
func (h *History) fastAccess(s *sched.Strand, addr uint64, kind AccessKind) {
	ss := stateOf(s)
	if !ss.buf.Add(addr, kind) {
		if h.countLocks {
			h.fastHits.Add(1)
		}
		return
	}
	if ss.buf.Pending() >= batchCap {
		h.flush(s, ss)
	}
}

// flush applies every pending entry of s's buffer to the history, one
// lock acquisition per page (ApplyPage).
func (h *History) flush(s *sched.Strand, ss *strandState) {
	ss.buf.Drain(func(num uint64, reads, writes *SlotSet) {
		if h.countLocks {
			h.batchFlushes.Add(1)
		}
		if h.opts.Tap != nil {
			ss.tapAddrs, ss.tapKinds = appendSet(ss.tapAddrs[:0], ss.tapKinds[:0], num, reads, AccessRead)
			ss.tapAddrs, ss.tapKinds = appendSet(ss.tapAddrs, ss.tapKinds, num, writes, AccessWrite)
			h.opts.Tap.TapAccesses(s, ss.tapAddrs, ss.tapKinds)
		}
		h.ApplyPage(s, num, reads, writes)
	})
}

// StrandClose implements sched.StrandCloser: the engine calls it exactly
// when s ends, before any dag-successor strand begins — the point where
// deferred accesses must become visible so successors' checks see them
// and the successors' own accesses are checked against them. It then
// detaches and pools s's payload, so a second call finds Aux nil and does
// nothing — which makes the engine's close after an abort-time
// best-effort one safe.
func (h *History) StrandClose(s *sched.Strand) {
	ss, ok := s.Aux.(*strandState)
	if !ok {
		return
	}
	h.flush(s, ss)
	s.Aux = nil
	if ss.buf.Reset() {
		statePool.Put(ss)
	}
}

// FastPathHits returns how many accesses the strand buffers absorbed
// without any history work (zero unless stats were enabled).
func (h *History) FastPathHits() uint64 { return h.fastHits.Load() }

// BatchFlushes returns how many single-lock batch applications ran.
func (h *History) BatchFlushes() uint64 { return h.batchFlushes.Load() }

var _ sched.StrandCloser = (*History)(nil)
