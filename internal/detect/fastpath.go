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
//     touched — in sched's Task.Read already, unless the run counts
//     accesses or wraps the history.
//
//  2. Strand-scoped batching. What the buffer keeps is, per lock unit
//     (shadow page), the set of slots read and the set of slots written,
//     applied under ONE lock acquisition per page when the strand closes,
//     or earlier once the buffer is full; the dedup state outlives early
//     drains. The page takes a set whole: Algorithm 1 runs once per state
//     the set's slots share (table.go), not once per slot, so a tile row
//     its last writer left in one state costs one Precedes query. Every
//     field of a page's states is read and written under the page's lock,
//     here as on the locked path, which is the same kernel over a set of
//     one slot.
//
// sched owns the buffer and its rule (sched.Keep): the history is a
// sched.PageSink, and its side is ApplyPage. A strand is executed by one
// worker at a time, so its buffer needs no synchronization.

import "sforder/internal/sched"

// SkipCovered is the sched.PageSink gate: sched keeps the history's
// accesses itself unless the history is locked, or counts its fast-path
// hits (RegisterStats) — an access sched absorbs never reaches the count.
func (h *History) SkipCovered() bool { return h.opts.FastPath && !h.countLocks }

// access is Read and Write: on the locked path one page-lock acquisition,
// else sched's buffer rule, with the hit counted if RegisterStats asked.
func (h *History) access(s *sched.Strand, addr uint64, kind AccessKind) {
	if !h.opts.FastPath {
		h.applyOne(s, addr, kind)
		return
	}
	if !sched.Keep(s, addr, kind, h.ApplyPage) && h.countLocks {
		h.fastHits.Add(1)
	}
}

// StrandClose implements sched.StrandCloser: the engine calls it exactly
// when s ends, before any dag-successor strand begins — the point where
// deferred accesses must become visible so successors' checks see them
// and the successors' own accesses are checked against them. It drains
// s's buffer and releases it (sched.CloseBuffer), so a second call does
// nothing.
func (h *History) StrandClose(s *sched.Strand) { sched.CloseBuffer(s, h.ApplyPage) }

var (
	_ sched.StrandCloser = (*History)(nil)
	_ sched.PageSink     = (*History)(nil)
)
