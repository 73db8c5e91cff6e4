package detect

// Lock-avoiding fast path of the access history (the paper's §6 future
// work: "reduce the synchronization overhead by redesigning the access
// history"). Profiling PR 2's hist.lock_acquires counter confirmed the
// paper's observation that full-mode overhead is dominated by the sheer
// volume of lock acquisitions — one per instrumented access — not by
// contention. Three cooperating mechanisms shed that volume while
// preserving the per-location detection guarantee (at least one race is
// reported on a location iff one exists there; see DESIGN.md §4 for the
// full soundness argument):
//
//  1. State words. A location's record (table.go) keeps its last writer
//     and its most recently recorded reader in two atomic words, stored
//     under the page lock and loaded without it. An access by the strand
//     a word already names — the recorded strand re-touching the location
//     — adds no information the locked history would retain, so it skips
//     everything. Each word is tested on its own; neither test needs the
//     other word to be current (DESIGN.md §4).
//
//  2. Strand-scoped batching. All accesses of one strand share a single
//     dag position, so every Precedes verdict involving the strand is
//     independent of where within the strand the access happened. The
//     remaining accesses are therefore buffered per strand — deduplicated
//     by (addr, kind) — grouped by lock unit (shadow page), and applied
//     under ONE lock acquisition per unit when the strand closes (the
//     sched.StrandCloser hook), amortizing lock volume by the batch
//     factor.
//
//  3. Precedes memo. The same last writer repeats across a streak of
//     locations, and Precedes(w, s) is immutable for a fixed pair (all of
//     s's incoming dag edges exist before s executes), so verdicts are
//     memoized per current strand in a small direct-mapped table.
//
// All per-strand state lives on Strand.Aux (shared with the StrandFilter
// cache) and is pooled at strand close; strands are only ever executed by
// one worker at a time, so the batch hot path is synchronization-free.

import (
	"sync"

	"sforder/internal/sched"
)

const (
	// memoSize is the per-strand Precedes memo size (direct-mapped,
	// power of two).
	memoSize = 64
	// batchCap bounds how many distinct (addr, kind) entries a strand
	// buffers before an early flush, so long strands cannot defer
	// unboundedly much work to their close.
	batchCap = 1024
	// poolMaxDistinct is the largest per-strand footprint worth pooling;
	// bigger maps are left to the GC rather than cached forever.
	poolMaxDistinct = 1 << 14
)

// unitBatch is a strand's pending accesses within one page.
type unitBatch struct {
	addrs []uint64
	kinds []AccessKind
}

// batchCacheSize is the per-strand dedup cache size (direct-mapped,
// power of two). The cache is lossy by design: a collision evicts, and
// an evicted (addr, kind) is simply batched again — duplicate entries
// are harmless at apply time (the locked path tolerates same-strand
// repeats), so misses only cost work, never detection.
const batchCacheSize = 256

// recentUnits is the size of the per-strand cache in front of the
// page → batch map (direct-mapped, power of two).
const recentUnits = 4

// strandState is the per-strand detector payload hung off Strand.Aux:
// the access batch, the Precedes memo, and the StrandFilter cache. A
// strand is executed by one worker at a time, so no synchronization.
type strandState struct {
	// seenAddr/seenMask form the direct-mapped (addr → kinds) dedup
	// cache; a slot is occupied iff its mask is non-zero, so only the
	// masks need clearing on reuse.
	seenAddr [batchCacheSize]uint64
	seenMask [batchCacheSize]uint8
	units    map[uint64]*unitBatch // page number → pending entries
	// recent is a direct-mapped cache in front of units: consecutive
	// accesses of a strand fall on a handful of pages. A slot is occupied
	// iff its batch is non-nil.
	recentNum   [recentUnits]uint64
	recentBatch [recentUnits]*unitBatch
	free        []*unitBatch // recycled batches (keep slice capacity warm)
	pending     int          // entries buffered since the last flush
	// distinct counts every entry ever batched by this strand; it keeps
	// growing across early flushes and gates pooling.
	distinct int
	memoK    [memoSize]uint64 // Precedes memo keys (strand ID + 1; 0 = empty)
	memoV    [memoSize]bool
	filter   *filterCache // StrandFilter cache (lazily allocated)
}

const (
	seenRead  = uint8(1) << AccessRead
	seenWrite = uint8(1) << AccessWrite
)

var statePool = sync.Pool{New: func() any {
	return &strandState{units: map[uint64]*unitBatch{}}
}}

// stateOf returns s's detector payload, allocating (from the pool) on
// first use.
func stateOf(s *sched.Strand) *strandState {
	if ss, ok := s.Aux.(*strandState); ok {
		return ss
	}
	ss := statePool.Get().(*strandState)
	s.Aux = ss
	return ss
}

// releaseStrandState detaches and pools s's payload. Idempotent: a second
// call finds Aux nil and does nothing — which also makes a StrandClose
// after an abort-time best-effort flush safe.
func releaseStrandState(s *sched.Strand) {
	ss, ok := s.Aux.(*strandState)
	if !ok {
		return
	}
	s.Aux = nil
	if ss.distinct > poolMaxDistinct {
		return // oversized maps go to the GC, not the pool
	}
	ss.seenMask = [batchCacheSize]uint8{} // seenAddr is guarded by the masks
	for _, ub := range ss.units {
		if len(ss.free) < 64 {
			ub.addrs, ub.kinds = ub.addrs[:0], ub.kinds[:0]
			ss.free = append(ss.free, ub)
		}
	}
	clear(ss.units)
	ss.recentBatch = [recentUnits]*unitBatch{} // recentNum is guarded by the batches
	ss.pending, ss.distinct = 0, 0
	ss.memoK = [memoSize]uint64{} // memoV is guarded by memoK
	if ss.filter != nil {
		*ss.filter = filterCache{}
	}
	statePool.Put(ss)
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

// published returns addr's record for a lock-free look at its state
// words, or nil when no access to addr has been applied yet.
func (h *History) published(addr uint64) *record {
	if p := h.tbl.lookup(addr >> pageBits); p != nil {
		return p.slots[addr&pageMask].Load()
	}
	return nil
}

// fastRead is the lock-avoiding read path. The state-word hit fires when
// s is already recorded for this location — as the last writer (the
// writer check subsumes the reader check for the same strand) or as the
// recorded reader since the last write — in which case the locked
// history would retain nothing new and every verdict it would compute is
// already decided. Only s stores s into a word, so a word naming s is
// s's own earlier flush; a flusher overwriting it right now runs
// concurrently with s, is therefore parallel to s, and checks its access
// against s's under the page lock.
func (h *History) fastRead(s *sched.Strand, addr uint64) {
	if r := h.published(addr); r != nil && (r.reader.Load() == s || r.writer.Load() == s) {
		if h.countLocks {
			h.fastHits.Add(1)
		}
		return
	}
	h.batchAccess(s, addr, AccessRead)
}

// fastWrite is the lock-avoiding write path: a strand re-writing a
// location it is already the published last writer of changes nothing
// (the readers it would clear were each recorded after s's write, by s
// itself or by strands parallel to s and therefore already reported).
func (h *History) fastWrite(s *sched.Strand, addr uint64) {
	if r := h.published(addr); r != nil && r.writer.Load() == s {
		if h.countLocks {
			h.fastHits.Add(1)
		}
		return
	}
	h.batchAccess(s, addr, AccessWrite)
}

// batchAccess buffers one access in s's strand batch, deduplicating by
// (addr, kind) with the StrandFilter rules: a read is subsumed by any
// earlier same-strand access to the address, a write by an earlier
// same-strand write. The dedup cache is lossy (direct-mapped); an
// evicted entry is batched again, which the apply path tolerates.
func (h *History) batchAccess(s *sched.Strand, addr uint64, kind AccessKind) {
	ss := stateOf(s)
	i := (addr * 0x9e3779b97f4a7c15 >> 32) & (batchCacheSize - 1)
	m := ss.seenMask[i]
	if m != 0 && ss.seenAddr[i] == addr {
		if m&(uint8(1)<<kind) != 0 || (kind == AccessRead && m&seenWrite != 0) {
			if h.countLocks {
				h.dedupHits.Add(1)
			}
			return
		}
		ss.seenMask[i] = m | uint8(1)<<kind
	} else {
		ss.seenAddr[i] = addr
		ss.seenMask[i] = uint8(1) << kind
	}
	ub := ss.batchOf(addr >> pageBits)
	ub.addrs = append(ub.addrs, addr)
	ub.kinds = append(ub.kinds, kind)
	ss.pending++
	ss.distinct++
	if ss.pending >= batchCap {
		h.flush(s, ss)
	}
}

// batchOf returns the strand's batch for page unit, creating it on the
// page's first pending entry.
func (ss *strandState) batchOf(unit uint64) *unitBatch {
	c := unit & (recentUnits - 1)
	if ub := ss.recentBatch[c]; ub != nil && ss.recentNum[c] == unit {
		return ub
	}
	ub := ss.units[unit]
	if ub == nil {
		if n := len(ss.free); n > 0 {
			ub = ss.free[n-1]
			ss.free = ss.free[:n-1]
		} else {
			ub = &unitBatch{}
		}
		ss.units[unit] = ub
	}
	ss.recentNum[c], ss.recentBatch[c] = unit, ub
	return ub
}

// flush applies every pending entry of s's batch to the history, one
// lock acquisition per page; applying a read or write under the lock is
// what publishes the location's state words. Entries within a page are
// applied in program order (a strand's read-then-write of an address
// must check in that order).
func (h *History) flush(s *sched.Strand, ss *strandState) {
	if ss.pending == 0 {
		return
	}
	for unit, ub := range ss.units {
		if len(ub.addrs) == 0 {
			continue
		}
		if h.countLocks {
			h.batchFlushes.Add(1)
		}
		if h.opts.Tap != nil {
			h.opts.Tap.TapAccesses(s, ub.addrs, ub.kinds)
		}
		p := h.lockPage(unit)
		for i, addr := range ub.addrs {
			h.apply(s, addr, ub.kinds[i], p.record(addr))
		}
		p.mu.Unlock()
		ub.addrs = ub.addrs[:0]
		ub.kinds = ub.kinds[:0]
	}
	ss.pending = 0
}

// StrandClose implements sched.StrandCloser: the engine calls it exactly
// when s ends, before any dag-successor strand begins — the point where
// deferred accesses must become visible so successors' checks see them
// and the successors' own accesses are checked against them.
func (h *History) StrandClose(s *sched.Strand) {
	ss, ok := s.Aux.(*strandState)
	if !ok {
		return
	}
	if h.opts.FastPath {
		h.flush(s, ss)
	}
	releaseStrandState(s)
}

// FastPathHits returns how many accesses the published state words
// absorbed without any history work (zero unless stats were enabled).
func (h *History) FastPathHits() uint64 { return h.fastHits.Load() }

// BatchFlushes returns how many single-lock batch applications ran.
func (h *History) BatchFlushes() uint64 { return h.batchFlushes.Load() }

// BatchDedupHits returns how many accesses the per-strand (addr, kind)
// dedup dropped before they reached a lock.
func (h *History) BatchDedupHits() uint64 { return h.dedupHits.Load() }

// MemoHits returns how many Precedes verdicts the per-strand memo served.
func (h *History) MemoHits() uint64 { return h.memoHits.Load() }

var _ sched.StrandCloser = (*History)(nil)
