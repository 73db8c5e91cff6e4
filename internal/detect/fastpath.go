package detect

// Lock-avoiding fast path of the access history (the paper's §6 future
// work: "reduce the synchronization overhead by redesigning the access
// history"). Profiling PR 2's hist.lock_acquires counter confirmed the
// paper's observation that full-mode overhead is dominated by the sheer
// volume of lock acquisitions — one per instrumented access — not by
// contention. Three mechanisms shed that volume while preserving the
// per-location detection guarantee (at least one race is reported on a
// location iff one exists there; DESIGN.md §4 has the argument):
//
//  1. Exact strand-local dedup. All accesses of one strand share a single
//     dag position, so a repeat that an earlier access of the same strand
//     subsumes (StrandBuffer states the rule) adds nothing the history
//     would retain and no verdict it has not already computed. The
//     strand's buffer drops it on a bit test, before any shared memory is
//     touched — an access either ends there or is appended there.
//
//  2. Strand-scoped batching. What the buffer keeps is grouped by lock
//     unit (shadow page) and applied under ONE lock acquisition per page
//     when the strand closes (the sched.StrandCloser hook), or earlier
//     once batchCap entries are pending; the dedup state outlives early
//     flushes. Every field of a location's record is read and written
//     under its page's lock, here as on the locked path.
//
//  3. Precedes memo. The same last writer repeats across a streak of
//     locations, and Precedes(w, s) is immutable for a fixed pair (all of
//     s's incoming dag edges exist before s executes), so verdicts are
//     memoized per current strand in a small direct-mapped table.
//
// All per-strand state lives on Strand.Aux and is pooled at strand close;
// a strand is only ever executed by one worker at a time, so the access
// hot path is synchronization-free.

import (
	"sync"

	"sforder/internal/sched"
)

const (
	// memoSize is the per-strand Precedes memo size (direct-mapped,
	// power of two).
	memoSize = 64
	// batchCap bounds how many entries a strand buffers before an early
	// flush, so long strands cannot defer unboundedly much work to their
	// close.
	batchCap = 1024
)

// strandState is the per-strand detector payload hung off Strand.Aux: the
// access buffer and the Precedes memo.
type strandState struct {
	buf   StrandBuffer
	memoK [memoSize]uint64 // Precedes memo keys (strand ID + 1; 0 = empty)
	memoV [memoSize]bool
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

// precedes answers Reach.Precedes through the per-strand memo when the
// fast path is enabled. Sound because the verdict is immutable for a
// fixed (u, v): every dag edge into v exists before v begins executing,
// so no event during v's lifetime can create or destroy a u ⇝ v path.
func (h *History) precedes(u, v *sched.Strand) bool {
	if !h.opts.FastPath {
		return h.opts.Reach.Precedes(u, v)
	}
	ss := stateOf(v)
	i := u.ID & (memoSize - 1)
	if ss.memoK[i] == u.ID+1 {
		if h.countLocks {
			h.memoHits.Add(1)
		}
		return ss.memoV[i]
	}
	ok := h.opts.Reach.Precedes(u, v)
	ss.memoK[i] = u.ID + 1
	ss.memoV[i] = ok
	return ok
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
// lock acquisition per page. Entries within a page are applied in program
// order (a strand's read-then-write of an address must check in that
// order).
func (h *History) flush(s *sched.Strand, ss *strandState) {
	ss.buf.Drain(func(num uint64, addrs []uint64, kinds []AccessKind) {
		if h.countLocks {
			h.batchFlushes.Add(1)
		}
		if h.opts.Tap != nil {
			h.opts.Tap.TapAccesses(s, addrs, kinds)
		}
		p := h.lockPage(num)
		for i, addr := range addrs {
			h.apply(s, addr, kinds[i], p.record(addr))
		}
		p.mu.Unlock()
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
		ss.memoK = [memoSize]uint64{} // memoV is guarded by memoK
		statePool.Put(ss)
	}
}

// FastPathHits returns how many accesses the strand buffers absorbed
// without any history work (zero unless stats were enabled).
func (h *History) FastPathHits() uint64 { return h.fastHits.Load() }

// BatchFlushes returns how many single-lock batch applications ran.
func (h *History) BatchFlushes() uint64 { return h.batchFlushes.Load() }

// MemoHits returns how many Precedes verdicts the per-strand memo served.
func (h *History) MemoHits() uint64 { return h.memoHits.Load() }

var _ sched.StrandCloser = (*History)(nil)
