// Package detect provides the access-history component shared by the
// race detectors: a paged shadow-memory table (table.go) remembering, per
// memory location, the last writer and a set of previous readers, plus
// the race reporting machinery.
//
// A detector is assembled from a reachability component (SF-Order,
// F-Order, or MultiBags — anything implementing Reachability) and a
// History configured with a reader-retention policy:
//
//   - ReadersAll keeps every reader between two writes (up to r per
//     location) — what F-Order requires for general futures and what the
//     paper's SF-Order implementation also ships (§4).
//   - ReadersLR keeps only the leftmost and rightmost reader per
//     (location, future) pair — at most 2k readers per location — which
//     §3.5 proves sufficient for structured futures (Lemmas 3.10, 3.11).
//
// As in the paper's implementation, the history is locked per page of
// locations (fine-grained locking), and the sheer volume of lock
// operations, not contention, dominates "full" overhead. Without
// Options.FastPath every access takes its page's lock; with it, a strand
// takes each page's lock once, when it closes (fastpath.go).
package detect

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"sforder/internal/accbuf"
	"sforder/internal/obsv"
	"sforder/internal/sched"
)

// Reachability answers on-the-fly precedence queries: u must be an
// already-executed strand recorded in the access history and v the
// currently executing strand.
type Reachability interface {
	Precedes(u, v *sched.Strand) bool
}

// ReaderPolicy selects how many previous readers the history retains.
type ReaderPolicy int

const (
	// ReadersAll retains every reader between consecutive writes.
	ReadersAll ReaderPolicy = iota
	// ReadersLR retains the leftmost and rightmost reader per
	// (location, future) pair — the 2k bound of §3.5. Requires LeftOf.
	ReadersLR
)

func (p ReaderPolicy) String() string {
	switch p {
	case ReadersAll:
		return "all"
	case ReadersLR:
		return "lr"
	default:
		return fmt.Sprintf("ReaderPolicy(%d)", int(p))
	}
}

// AccessKind tags the two sides of a reported race; SlotSet and PageBits
// describe a shadow page to ApplyPage's callers. They live in accbuf.
type (
	AccessKind = accbuf.AccessKind
	SlotSet    = accbuf.SlotSet
)

const (
	AccessRead  = accbuf.AccessRead
	AccessWrite = accbuf.AccessWrite
	PageBits    = accbuf.PageBits
)

// Race describes one determinacy race: two logically parallel accesses
// to the same location, at least one a write.
type Race struct {
	Addr       uint64
	PrevStrand uint64 // strand ID of the earlier (recorded) access
	CurStrand  uint64 // strand ID of the access that exposed the race
	PrevFuture int
	CurFuture  int
	Prev, Cur  AccessKind
	// PrevLabel and CurLabel carry the user labels (Task.Label) of the
	// racing strands' regions, when set.
	PrevLabel, CurLabel string
}

func (r Race) String() string {
	side := func(kind AccessKind, strand uint64, fut int, label string) string {
		s := fmt.Sprintf("%s by s%d/f%d", kind, strand, fut)
		if label != "" {
			s += fmt.Sprintf(" (%q)", label)
		}
		return s
	}
	return fmt.Sprintf("race on %#x: %s vs %s", r.Addr,
		side(r.Prev, r.PrevStrand, r.PrevFuture, r.PrevLabel),
		side(r.Cur, r.CurStrand, r.CurFuture, r.CurLabel))
}

// Options configures a History.
type Options struct {
	// Reach answers precedence queries. Required.
	Reach Reachability
	// Policy selects reader retention; ReadersLR additionally requires
	// LeftOf.
	Policy ReaderPolicy
	// LeftOf reports whether strand a is left of strand b (earlier in
	// the English order) among logically parallel strands of one future.
	LeftOf func(a, b *sched.Strand) bool
	// MaxRaces caps the number of detailed Race records retained
	// (counting continues past the cap). 0 means 256.
	MaxRaces int
	// Backend is accepted and ignored: there is one shadow table
	// (table.go). The field and BackendShardedMap stay only because the
	// frozen bench/adapter.go sets them.
	Backend Backend
	// DedupByAddr reports at most one race per memory location: after
	// the first report on an address, later races there are counted
	// in RaceCount but not retained as detailed records. Keeps reports
	// readable on programs with systematic races (e.g. a racy loop).
	DedupByAddr bool
	// Tap, when non-nil, additionally receives every access the history
	// applies — the record hook for offline replay (internal/trace). With
	// FastPath the tap fires once per drained page batch, so recording
	// costs one call per page a strand touched, not one per access;
	// without it the tap fires per access from the locked slow path. The
	// entries handed to the tap are exactly the ones the history applies,
	// after the strand buffer's dedup — a detection-equivalent access
	// stream at location granularity — a page's reads in slot order, then
	// its writes.
	Tap AccessTap
	// FastPath enables the lock-avoiding access path (see fastpath.go):
	// an exact strand-local dedup absorbing a strand's repeats, and
	// per-strand batches applied one lock acquisition per shadow page at
	// strand close. Detection at location granularity is unchanged
	// (DESIGN.md §4 has the soundness argument). Accesses are deferred
	// until the strand closes — sched drains its buffer, or calls
	// StrandClose — so a History used without an engine must call
	// StrandClose itself.
	FastPath bool
}

// AccessTap observes the access stream the history applies, batched:
// addrs[i] was touched by strand s with kinds[i]. Called with the same
// per-strand ordering guarantees as the history update itself — every
// tapped access of a strand happens before the tracer event ending that
// strand (the drain runs inside sched's strand close). The tap must
// not retain the slices past the call.
type AccessTap interface {
	TapAccesses(s *sched.Strand, addrs []uint64, kinds []AccessKind)
}

// Backend and BackendShardedMap are the stub of the retired shadow-layout
// selector that Options.Backend documents; remove with the next benchmark
// PR.
type Backend int

const BackendShardedMap Backend = 0

// History is the access-history component: it implements
// sched.AccessChecker and reports every determinacy race it observes.
type History struct {
	opts Options
	tbl  table

	// countLocks enables the page-lock acquisition counter and the
	// fast-path hit counters. It is set (before the run starts) by
	// RegisterStats only, so the disabled hot path pays one predictable
	// branch and nothing else.
	countLocks   bool
	lockAcquires atomic.Uint64
	fastHits     atomic.Uint64
	batchFlushes atomic.Uint64
	groupOps     atomic.Uint64
	stateSplits  atomic.Uint64

	raceCount atomic.Uint64
	racyCount atomic.Int64 // distinct racy addresses: the bits of every page's racy set
	raceMu    sync.Mutex
	chunks    []*[chunkRaces]Race // the retained records in report order, appended under raceMu
	retained  atomic.Int64        // records in chunks; stored under raceMu, loaded without it
}

// NewHistory returns an empty access history.
func NewHistory(opts Options) *History {
	if opts.Reach == nil {
		panic("detect: Options.Reach is required")
	}
	if opts.Policy == ReadersLR && opts.LeftOf == nil {
		panic("detect: ReadersLR requires Options.LeftOf")
	}
	if opts.MaxRaces == 0 {
		opts.MaxRaces = 256
	}
	return &History{opts: opts}
}

// Read implements sched.AccessChecker: check against the last writer, then
// record the reader per the configured policy. With FastPath the access
// goes through the strand's buffer (sched.Keep), not the page's lock
// (fastpath.go).
func (h *History) Read(s *sched.Strand, addr uint64) { h.access(s, addr, AccessRead) }

// Write implements sched.AccessChecker: check against the last writer
// and all retained readers, then make s the last writer and clear the
// readers (they are subsumed: any later access racing a cleared reader
// also races this write or was already reported — §3.6).
func (h *History) Write(s *sched.Strand, addr uint64) { h.access(s, addr, AccessWrite) }

// applyOne is the locked slow path: one access, one page-lock
// acquisition, and the drain's kernel over a set of one slot.
func (h *History) applyOne(s *sched.Strand, addr uint64, kind AccessKind) {
	var sets [2]SlotSet
	sets[kind&1][addr&pageMask>>6] = 1 << (addr & 63)
	h.ApplyPage(s, addr>>pageBits, &sets[AccessRead], &sets[AccessWrite])
}

// ApplyPage performs s's accesses to one shadow page under one acquisition
// of the page's lock: the reads of the slots in reads, then the writes of
// the slots in writes — a slot in both was read and then written (the
// strand buffer absorbs a read after a write), and must check in that
// order. It is the one entry to the per-location kernel: the locked path
// calls it with one slot, sched's drain of a strand buffer once per page
// (sched.PageSink), an offline replay shard (internal/replay) once per
// recorded block, on a history of its own. It taps what it applies first.
func (h *History) ApplyPage(s *sched.Strand, num uint64, reads, writes *SlotSet) {
	if h.opts.Tap != nil {
		// The lists take the scratch of s's buffer: the one being drained,
		// or on the locked path one the open strand has for nothing else.
		addrs, kinds := s.Buffer().Expand(num, reads, writes)
		h.opts.Tap.TapAccesses(s, addrs, kinds)
	}
	if h.countLocks && h.opts.FastPath {
		h.batchFlushes.Add(1)
	}
	p := h.lockPage(num)
	if *reads != (SlotSet{}) {
		h.applyReads(p, s, reads)
	}
	if *writes != (SlotSet{}) {
		h.applyWrites(p, s, writes)
	}
	p.mu.Unlock()
}

// lockPage returns page num, created if need be, with its lock held.
func (h *History) lockPage(num uint64) *page {
	if h.countLocks {
		h.lockAcquires.Add(1)
	}
	p := h.tbl.pageFor(num)
	p.mu.Lock()
	return p
}

// applyReads performs s's reads of the slots in set on p, whose lock the
// caller holds. The slots are taken one state at a time: every slot
// pointing at a state has the same last writer and the same readers, so
// Algorithm 1's check of one of them is the check of all, and one update
// serves them all — in place when the state has no other slots, on a copy
// otherwise.
func (h *History) applyReads(p *page, s *sched.Strand, set *SlotSet) {
	head := p.group(set)
	var groups, splits uint64
	for i := head; i != noState; groups++ {
		st := p.at(i)
		hit, next := st.hit, st.link
		st.hit = 0
		if w := st.writer; w != nil && w != s && !h.opts.Reach.Precedes(w, s) {
			h.reportGroup(p, set, i, w, AccessWrite, s, AccessRead)
		}
		i = next
		// A read that would leave the readers as they are records nothing:
		// under ReadersAll a strand that is already the last reader,
		// under ReadersLR one its future's pair keeps as it is.
		rs := st.readers()
		switch h.opts.Policy {
		case ReadersAll:
			if n := len(rs); n > 0 && rs[n-1] == s {
				continue
			}
			if hit < st.n {
				st = p.split(st, hit, 1) // room for s
				rs = st.readers()
				splits++
			}
			st.setReaders(append(rs, s))
		case ReadersLR:
			k, l, r := h.lrStep(rs, s)
			if k < len(rs) && !l && !r {
				continue
			}
			if hit < st.n {
				st = p.split(st, hit, 2) // room for (s, s)
				rs = st.readers()
				splits++
			}
			if k == len(rs) {
				st.setReaders(append(rs, s, s))
				continue
			}
			if l {
				rs[k] = s
			}
			if r {
				rs[k+1] = s
			}
		}
	}
	if splits > 0 {
		p.move(set, head)
	}
	if h.countLocks {
		h.groupOps.Add(groups)
		h.stateSplits.Add(splits)
	}
}

// lrStep decides s's read under ReadersLR, the classic replacement rules
// (Mellor-Crummey): a serially later reader subsumes the stored one; among
// parallel readers, keep the leftmost (respectively rightmost) in English
// order. The pairs are flat in rs, leftmost first; k is the index of s's
// future's pair, found by a scan, or len(rs) if it has none — s then
// starts (s, s) — and l and r whether s replaces the pair's leftmost and
// rightmost. A repeat read by s decides as its first did: what that read
// left in the pair is s, or a strand that neither precedes s nor lies on
// the far side of it.
func (h *History) lrStep(rs []*sched.Strand, s *sched.Strand) (k int, l, r bool) {
	for k < len(rs) && rs[k].Fut.ID != s.Fut.ID {
		k += 2
	}
	if k == len(rs) {
		return k, false, false
	}
	lm, rm := rs[k], rs[k+1]
	l = lm != s && (h.opts.Reach.Precedes(lm, s) || h.opts.LeftOf(s, lm))
	r = rm != s && (h.opts.Reach.Precedes(rm, s) || h.opts.LeftOf(rm, s))
	return k, l, r
}

// applyWrites performs s's writes of the slots in set on p, whose lock
// the caller holds: each state the slots point at is checked once — last
// writer and every retained reader — and then all the slots share one
// state, s the last writer of an empty reader set, whatever they pointed
// at before: the first state the writes leave without slots, or a fresh
// one when every state keeps some.
func (h *History) applyWrites(p *page, s *sched.Strand, set *SlotSet) {
	head, to := p.group(set), uint16(noState)
	var total uint16
	var groups uint64
	for i := head; i != noState; groups++ {
		st := p.at(i)
		hit, next := st.hit, st.link
		st.hit = 0
		h.checkWrite(p, set, i, st, s)
		total += hit
		if st.n -= hit; st.n == 0 {
			if to == noState {
				to = i
			} else {
				p.release(i)
			}
		}
		i = next
	}
	moved := groups > 1 || to == noState // else one state's slots, all of them: they stay
	if to == noState {
		to = p.newState()
	}
	st := p.at(to)
	st.writer, st.rn, st.n = s, 0, total
	if moved {
		p.point(set, to)
	}
	if h.countLocks {
		h.groupOps.Add(groups)
	}
}

// checkWrite checks a write by s against state i of p, st: the last
// writer and every retained reader — under ReadersLR each pair's two, or
// its one when a single strand is both.
func (h *History) checkWrite(p *page, set *SlotSet, i uint16, st *state, s *sched.Strand) {
	if w := st.writer; w != nil && w != s && !h.opts.Reach.Precedes(w, s) {
		h.reportGroup(p, set, i, w, AccessWrite, s, AccessWrite)
	}
	lr := h.opts.Policy == ReadersLR
	rs := st.readers()
	for k, rd := range rs {
		if lr && k&1 == 1 && rd == rs[k-1] {
			continue
		}
		if rd != s && !h.opts.Reach.Precedes(rd, s) {
			h.reportGroup(p, set, i, rd, AccessRead, s, AccessWrite)
		}
	}
}

// reportGroup reports the race between prev's recorded access and cur's
// on every slot of set that points at state i: a verdict is per state, a
// race is per address. The caller holds the page lock, which guards the
// racy set, so a group is an atomic add to each count and a masked OR a
// word; only records still to be retained — under the cap, and under
// DedupByAddr at newly racy slots only — take raceMu.
func (h *History) reportGroup(p *page, set *SlotSet, i uint16, prev *sched.Strand, prevKind AccessKind, cur *sched.Strand, curKind AccessKind) {
	if p.racy == nil {
		p.racy = new(SlotSet)
	}
	var keep SlotSet
	n, fresh := 0, 0
	for w, word := range set {
		hit := p.hits(w, word, i)
		newly := hit &^ p.racy[w]
		p.racy[w] |= hit
		n += bits.OnesCount64(hit)
		fresh += bits.OnesCount64(newly)
		keep[w] = hit
		if h.opts.DedupByAddr {
			keep[w] = newly
		}
	}
	h.raceCount.Add(uint64(n))
	if fresh > 0 {
		h.racyCount.Add(int64(fresh))
	}
	if keep != (SlotSet{}) && int(h.retained.Load()) < h.opts.MaxRaces {
		h.retain(p.num, &keep, Race{PrevStrand: prev.ID, CurStrand: cur.ID, PrevFuture: prev.Fut.ID, CurFuture: cur.Fut.ID,
			Prev: prevKind, Cur: curKind, PrevLabel: prev.Label(), CurLabel: cur.Label()})
	}
}

// chunkRaces is the size of a chunk of retained records: the list grows a
// chunk at a time and never copies a record.
const chunkRaces = 32

// retain appends race r at each slot of keep on page num, in slot order,
// until MaxRaces records are retained.
func (h *History) retain(num uint64, keep *SlotSet, r Race) {
	h.raceMu.Lock()
	n := int(h.retained.Load())
	for w, word := range keep {
		for ; word != 0 && n < h.opts.MaxRaces; word &= word - 1 {
			if n%chunkRaces == 0 {
				h.chunks = append(h.chunks, new([chunkRaces]Race))
			}
			r.Addr = num<<pageBits | uint64(w<<6|bits.TrailingZeros64(word))
			h.chunks[n/chunkRaces][n%chunkRaces] = r
			n++
		}
	}
	h.retained.Store(int64(n))
	h.raceMu.Unlock()
}

// RaceCount returns the total number of races reported (including ones
// past the detailed-record cap).
func (h *History) RaceCount() uint64 { return h.raceCount.Load() }

// Races returns the retained detailed race records, in report order.
func (h *History) Races() []Race {
	h.raceMu.Lock()
	defer h.raceMu.Unlock()
	n := int(h.retained.Load())
	out := make([]Race, 0, n)
	for _, c := range h.chunks {
		out = append(out, c[:min(chunkRaces, n-len(out))]...)
	}
	return out
}

// RacyAddrs returns the sorted set of addresses on which at least one
// race was reported — the location-level ground truth the tests compare
// against the oracle, read off the pages' racy sets under their locks.
func (h *History) RacyAddrs() []uint64 {
	out := make([]uint64, 0, int(h.racyCount.Load()))
	h.tbl.forEachPage(func(p *page) {
		for w := 0; p.racy != nil && w < len(p.racy); w++ {
			for word := p.racy[w]; word != 0; word &= word - 1 {
				out = append(out, p.num<<pageBits|uint64(w<<6|bits.TrailingZeros64(word)))
			}
		}
	})
	slices.Sort(out)
	return out
}

// LockAcquires returns how many history-lock acquisitions were counted;
// zero unless RegisterStats enabled the counter before the run.
func (h *History) LockAcquires() uint64 { return h.lockAcquires.Load() }

// MemBytes estimates the history's heap footprint: the shadow table's,
// with every retained reader of either policy counted at its list's
// capacity (table.memBytes).
func (h *History) MemBytes() int { return h.tbl.memBytes() }

// RegisterStats publishes the history counters (hist.*) on r and enables
// the lock-acquisition and fast-path counters. Call it before the run
// starts: the enable flag is read unsynchronized by the access hot path.
func (h *History) RegisterStats(r *obsv.Registry) {
	h.countLocks = true
	r.RegisterFunc("hist.races", func() int64 { return int64(h.raceCount.Load()) })
	r.RegisterFunc("hist.lock_acquires", func() int64 { return int64(h.lockAcquires.Load()) })
	r.RegisterFunc("hist.mem_bytes", func() int64 { return int64(h.MemBytes()) })
	r.RegisterFunc("hist.fastpath_hits", func() int64 { return int64(h.fastHits.Load()) })
	r.RegisterFunc("hist.batch_flushes", func() int64 { return int64(h.batchFlushes.Load()) })
	r.RegisterFunc("hist.group_ops", func() int64 { return int64(h.groupOps.Load()) })
	r.RegisterFunc("hist.state_splits", func() int64 { return int64(h.stateSplits.Load()) })
	r.RegisterFunc("hist.states", func() int64 { return int64(h.tbl.liveStates()) })
}

// MaxReaders returns the largest retained reader count over all
// locations right now — used by tests asserting the 2k bound of the
// ReadersLR policy.
func (h *History) MaxReaders() int {
	most := 0
	h.tbl.forEachPage(func(p *page) {
		p.forEachState(func(_ uint16, st *state) { // a dead state retains none
			most = max(most, int(st.rn))
		})
	})
	return most
}

var _ sched.AccessChecker = (*History)(nil)
