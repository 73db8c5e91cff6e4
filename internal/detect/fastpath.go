package detect

// Lock-avoiding fast path of the access history (the paper's §6 future
// work: "reduce the synchronization overhead by redesigning the access
// history"): full-mode overhead is dominated by the sheer volume of lock
// acquisitions — one per instrumented access — not by contention. Two
// mechanisms shed that volume while preserving the per-location guarantee
// (at least one race is reported on a location iff one exists there;
// DESIGN.md §4 has the argument):
//
//  1. Exact strand-local dedup. All accesses of one strand share a single
//     dag position, so a repeat that an earlier access of the same strand
//     subsumes (StrandBuffer states the rule) adds nothing the history
//     would retain and no verdict it has not already computed. The
//     strand's buffer drops it on a bit test, before any shared memory is
//     touched — in sched already (SkipCovered), unless the run counts
//     accesses or wraps the history.
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
// A strand's buffer is on Strand.Buf from its first access to its close,
// and a strand is executed by one worker at a time: no synchronization.

import (
	"sforder/internal/accbuf"
	"sforder/internal/sched"
)

// batchCap bounds how many entries a strand buffers before an early flush,
// so long strands cannot defer unboundedly much work to their close.
const batchCap = 1024

// SkipCovered implements sched.CoveredSkipper: an access the strand's
// buffer covers is one access would drop, and count if RegisterStats asked.
func (h *History) SkipCovered() bool { return h.opts.FastPath && !h.countLocks }

// access is Read and Write. On the lock-avoiding path the strand's buffer
// drops the access if an earlier one of the same strand subsumes it, and
// keeps it for the flush otherwise.
func (h *History) access(s *sched.Strand, addr uint64, kind AccessKind) {
	if !h.opts.FastPath {
		h.applyOne(s, addr, kind)
		return
	}
	b := s.Buffer()
	if !b.Add(addr, kind) {
		if h.countLocks {
			h.fastHits.Add(1)
		}
		return
	}
	if b.Pending() >= batchCap {
		h.flush(s, b)
	}
}

// AccessRange implements sched.RangeChecker: n accesses of one kind, to
// addr and the n-1 addresses after it, as n calls of Read or Write. The
// locked path makes those calls' applyOne; the fast path hands the
// buffer the range a page at a time and flushes once batchCap entries are
// pending, so a range overshoots batchCap by less than a page.
func (h *History) AccessRange(s *sched.Strand, addr uint64, n int, kind AccessKind) {
	if !h.opts.FastPath {
		for ; n > 0; n-- {
			h.applyOne(s, addr, kind)
			addr++
		}
		return
	}
	b := s.Buffer()
	for n > 0 {
		m := min(n, int(1<<pageBits-addr&pageMask)) // the range's addresses on addr's page
		kept := b.AddRange(addr, m, kind)
		if h.countLocks && kept < m {
			h.fastHits.Add(uint64(m - kept))
		}
		if b.Pending() >= batchCap {
			h.flush(s, b)
		}
		addr += uint64(m)
		n -= m
	}
}

// flush applies every pending entry of s's buffer to the history, one
// lock acquisition per page (ApplyPage).
func (h *History) flush(s *sched.Strand, b *accbuf.StrandBuffer) {
	b.Drain(func(num uint64, reads, writes *SlotSet) {
		if h.countLocks {
			h.batchFlushes.Add(1)
		}
		if h.opts.Tap != nil {
			addrs, kinds := b.Expand(num, reads, writes)
			h.opts.Tap.TapAccesses(s, addrs, kinds)
		}
		h.ApplyPage(s, num, reads, writes)
	})
}

// StrandClose implements sched.StrandCloser: the engine calls it exactly
// when s ends, before any dag-successor strand begins — the point where
// deferred accesses must become visible so successors' checks see them
// and the successors' own accesses are checked against them. It then takes
// the buffer off s and releases it, so a second call does nothing — which
// makes the engine's close after an abort-time best-effort one safe.
func (h *History) StrandClose(s *sched.Strand) {
	if b := s.Buf; b != nil {
		h.flush(s, b)
		s.Buf = nil
		b.Release()
	}
}

// FastPathHits returns how many accesses the strand buffers absorbed
// without any history work (zero unless stats were enabled).
func (h *History) FastPathHits() uint64 { return h.fastHits.Load() }

// BatchFlushes returns how many single-lock batch applications ran.
func (h *History) BatchFlushes() uint64 { return h.batchFlushes.Load() }

var _ sched.StrandCloser = (*History)(nil)
var _ sched.CoveredSkipper = (*History)(nil)
var _ sched.RangeChecker = (*History)(nil)
