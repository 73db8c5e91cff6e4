// Package om implements the order-maintenance (OM) data structure used by
// the WSP-Order and SF-Order reachability components: a total order of
// items supporting InsertAfter and constant-time order queries
// (Dietz–Sleator list labeling, two-level variant).
//
// SF-Order (like WSP-Order before it) keeps dag nodes in two OM lists —
// the English (left-to-right DFS) and Hebrew (right-to-left DFS) orders of
// the pseudo-SP-dag — and decides series-parallel relationships by
// comparing an item's position in both lists.
//
// # Concurrency
//
// The original WSP-Order obtains amortized O(1) queries under parallel
// execution through specialized work-stealing runtime support that
// coordinates query/rebalance interleavings. This implementation obtains
// the same interface guarantees with a seqlock plus fine-grained bucket
// locking:
//
//   - Queries (Precedes) are lock-free optimistic reads of atomic labels,
//     retried on the (rare) relabelings — unchanged from the global-lock
//     design, since queries never read bucket contents, only labels and
//     the item→bucket pointer, all validated by the seqlock version.
//   - Inserts lock only the target item's bucket. Two inserts into
//     different buckets — distinct subtrees executing on distinct workers
//     — proceed fully in parallel. After locking, the inserter re-checks
//     the item's bucket pointer: items move between buckets only at a
//     split, and always into a freshly allocated bucket, so observing a
//     stale pointer is detectable (no ABA) and the insert retries.
//   - Structural maintenance — bucket splits, bucket relabelings, and
//     top-level renumberings — escalates to the list-level maintenance
//     lock, which serializes maintenance against itself; individual
//     bucket locks are acquired inside it (lock order: maintenance lock,
//     then bucket locks) and the seqlock brackets every label rewrite
//     exactly as before. Item→bucket moves happen only under the
//     maintenance lock, which is what makes the escalated path's bucket
//     resolution stable.
//
// A batch insert (InsertAfterN) keeps its run adjacent against every
// concurrent insert anchored at a *different* item: the whole run is
// placed under one bucket-lock critical section (or one maintenance-lock
// section on escalation), and a concurrent insert after another anchor y
// lands immediately after y, which is never strictly between the batch's
// anchor and its first item. Concurrent inserts after the *same* anchor
// are unordered relative to each other; the tracer discipline (each item
// is extended only by the strand that owns it, and the engine orders
// events per strand) means that never happens in practice.
package om

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"sforder/internal/obsv"
)

const (
	// bucketCap is the maximum number of items per bottom-level bucket
	// before it splits.
	bucketCap = 64
	// itemSpan is the spacing used when a bucket's items are relabeled
	// evenly. bucketCap*itemSpan must not overflow uint64.
	itemSpan = uint64(1) << 56
	// topSpace is the preferred exclusive upper bound of top-level
	// (bucket) labels. Renumberings normally spread buckets inside it.
	topSpace = uint64(1) << 62
	// topSpaceMax is the hard ceiling an escalated global renumbering
	// widens the top-level label space to when even a global spread
	// across topSpace cannot open gaps (adversarial dense-insert
	// patterns). Reaching a state where topSpaceMax itself is too small
	// would require 2^62 buckets — more memory than any machine has — so
	// escalation makes label exhaustion structurally unreachable.
	topSpaceMax = uint64(1) << 63
)

// Item is a position in a List. The caller owns the record — typically
// a field of its per-strand record, so a position costs no allocation of
// its own — and hands it to one insert into one list; the insert sets
// every field, so a recycled Item needs no zeroing. After that the
// fields are the list's, and Precedes compares placed items.
type Item struct {
	bucket atomic.Pointer[bucket]
	label  atomic.Uint64
	next   *Item // next item in the same bucket; accessed under bucket.mu
}

// A bucket's items are a singly linked run, ordered by label, so an
// insert links its run after the anchor without moving any other item.
type bucket struct {
	label      atomic.Uint64
	prev, next *bucket // top-level links; accessed under List.maint
	mu         sync.Mutex
	head       *Item // first item; accessed under mu
	n          int   // number of items; accessed under mu
}

// List is an order-maintenance list. The zero value is not usable; create
// lists with NewList. Concurrent Precedes queries may run alongside
// inserts; concurrent inserts into different buckets proceed in parallel.
type List struct {
	// maint is the maintenance lock: it serializes bucket splits,
	// relabelings, top-level renumberings, and any other structural
	// change (item→bucket moves, top-level links). The common-case
	// insert never takes it. Lock order: maint before bucket.mu.
	maint   sync.Mutex
	version atomic.Uint64 // seqlock: odd while labels are being rewritten
	head    *bucket       // accessed under maint
	tail    *bucket       // accessed under maint

	size    atomic.Int64
	buckets atomic.Int64

	splits      atomic.Int64 // bucket splits
	relabels    atomic.Int64 // bucket-internal relabelings
	renumbers   atomic.Int64 // top-level renumberings (local or global)
	escalations atomic.Int64 // escalated global renumbers (bound widened)

	// bound is the current exclusive upper bound for top-level labels:
	// softBound until an escalated global renumbering widens it to
	// hardBound. All three are read and written under maint only; tests
	// shrink them (SetLabelSpaceForTest) to drive exhaustion cheaply.
	bound     uint64
	softBound uint64
	hardBound uint64

	maintLocks  atomic.Int64 // insert-path maintenance-lock acquisitions
	bucketLocks atomic.Int64 // fast-path bucket-lock acquisitions
	contended   atomic.Int64 // fast-path retries + escalations

	// global forces every insert through the maintenance lock — the
	// pre-fine-grained behavior, kept for the ABL8 ablation.
	global bool
}

// NewList returns an empty list with fine-grained (per-bucket) insert
// locking.
func NewList() *List {
	return &List{bound: topSpace, softBound: topSpace, hardBound: topSpaceMax}
}

// NewListGlobalLock returns an empty list whose inserts all serialize on
// the single list-level lock — the behavior before fine-grained locking.
// Used by the ABL8 ablation and A/B tests only.
func NewListGlobalLock() *List {
	l := NewList()
	l.global = true
	return l
}

// Len returns the number of items in the list.
func (l *List) Len() int { return int(l.size.Load()) }

// Stats returns maintenance counters: bucket splits, bucket-internal
// relabelings, and top-level renumberings. Used by tests and the
// experiment harness to confirm rebalancing stays rare. Lock-free.
func (l *List) Stats() (splits, relabels, renumbers int) {
	return int(l.splits.Load()), int(l.relabels.Load()), int(l.renumbers.Load())
}

// Escalations returns how many global renumberings had to widen the
// top-level label space to the hard ceiling — the graceful replacement
// for the former "label space exhausted" panic. Lock-free.
func (l *List) Escalations() int64 { return l.escalations.Load() }

// LockAcquires returns the number of insert-path acquisitions of the
// list-level maintenance lock: every insert in global mode, only
// escalations (split/relabel/renumber and full or label-exhausted
// buckets) in fine-grained mode. The ABL8 ablation pins the ratio.
func (l *List) LockAcquires() int64 { return l.maintLocks.Load() }

// BucketLocks returns the number of fast-path bucket-lock acquisitions.
func (l *List) BucketLocks() int64 { return l.bucketLocks.Load() }

// InsertContended returns how often the fast path lost a race (anchor
// moved buckets mid-insert) or escalated to the maintenance lock.
func (l *List) InsertContended() int64 { return l.contended.Load() }

// RegisterStats publishes the list's maintenance counters, size, memory
// estimate, and locking counters on r under prefix (e.g. "om.english").
// Every gauge reads atomics only, so snapshots never contend with a hot
// run.
func (l *List) RegisterStats(r *obsv.Registry, prefix string) {
	r.RegisterFunc(prefix+".splits", func() int64 { return l.splits.Load() })
	r.RegisterFunc(prefix+".relabels", func() int64 { return l.relabels.Load() })
	r.RegisterFunc(prefix+".renumbers", func() int64 { return l.renumbers.Load() })
	r.RegisterFunc(prefix+".escalations", func() int64 { return l.escalations.Load() })
	r.RegisterFunc(prefix+".items", func() int64 { return l.size.Load() })
	r.RegisterFunc(prefix+".mem_bytes", func() int64 { return int64(l.MemBytes()) })
	r.RegisterFunc(prefix+".lock_acquires", l.LockAcquires)
	r.RegisterFunc(prefix+".bucket_locks", l.BucketLocks)
	r.RegisterFunc(prefix+".insert_contended", l.InsertContended)
}

// bucketSize is the real struct size, derived rather than hard-coded so
// the Figure 5 numbers cannot drift as the struct evolves (a test pins
// it to the expected value).
var bucketSize = int(unsafe.Sizeof(bucket{}))

// MemBytes is the heap footprint the list owns: its buckets, for the
// Figure 5 memory-accounting harness. Items are the caller's records and
// are counted with them. Buckets hold no item storage of their own, so
// the figure is exact and derived from an atomic alone — safe to scrape
// mid-run.
func (l *List) MemBytes() int {
	return int(l.buckets.Load()) * bucketSize
}

// InsertFirst places it at the head of an empty list. It panics if the
// list is non-empty: all subsequent positions must be created relative
// to existing ones so the total order is well defined.
func (l *List) InsertFirst(it *Item) {
	l.maintLocks.Add(1)
	l.maint.Lock()
	defer l.maint.Unlock()
	if l.size.Load() != 0 {
		panic("om: InsertFirst on non-empty list")
	}
	b := &bucket{}
	b.label.Store(l.bound / 2)
	l.head, l.tail = b, b
	l.buckets.Store(1)
	it.place(b, itemSpan, nil)
	b.head, b.n = it, 1
	l.size.Store(1)
}

// InsertAfterN atomically places items immediately after x, in slice
// order (items[0] directly follows x). The batch form exists because a
// spawn event must place the child strand, the continuation strand, and
// possibly the sync placeholder in one step, with no other insert
// landing between them (see the package comment for the exact adjacency
// guarantee under concurrency). The slice is not retained.
func (l *List) InsertAfterN(x *Item, items []*Item) {
	n := len(items)
	if n <= 0 {
		panic("om: InsertAfterN with n <= 0")
	}
	if !l.global {
		for {
			r := l.tryInsertRun(x, items)
			if r == runDone {
				l.size.Add(int64(n))
				return
			}
			if r == runEscalate {
				break
			}
			// runRetry: x moved to a fresh bucket under a split; go again.
		}
		l.contended.Add(1)
	}
	l.maintLocks.Add(1)
	l.maint.Lock()
	prev := x
	for _, it := range items {
		l.placeAfterMaint(prev, it)
		prev = it
	}
	l.maint.Unlock()
	l.size.Add(int64(n))
}

type runResult int

const (
	runDone runResult = iota
	runRetry
	runEscalate
)

// tryInsertRun is the fine-grained fast path: place the whole batch
// immediately after x under x's bucket lock alone. It succeeds when the
// bucket has room for the run and the label gap after x fits it; it
// reports runRetry when x moved buckets between the unlocked load and
// the lock (only a split moves items, always into a fresh bucket), and
// runEscalate when the bucket needs maintenance first.
//
// The fast path touches no existing label and no bucket label, so it
// does not bump the seqlock: a concurrent Precedes reads either a fully
// published new item (bucket and label stored before the item becomes
// reachable from the caller) or none of it.
func (l *List) tryInsertRun(x *Item, items []*Item) runResult {
	n := len(items)
	b := x.bucket.Load()
	l.bucketLocks.Add(1)
	b.mu.Lock()
	if x.bucket.Load() != b {
		b.mu.Unlock()
		l.contended.Add(1)
		return runRetry
	}
	if b.n+n > bucketCap {
		b.mu.Unlock()
		return runEscalate
	}
	lo := x.label.Load()
	hi := uint64(0) // exclusive sentinel meaning "top of label space"
	if x.next != nil {
		hi = x.next.label.Load()
	}
	// Pick n evenly spaced labels strictly inside (lo, hi).
	var step uint64
	if hi == 0 {
		if lo <= ^uint64(0)-uint64(n)*itemSpan {
			step = itemSpan // leave headroom by stepping full spans
		} else {
			hi = ^uint64(0)
		}
	}
	if step == 0 {
		gap := hi - lo
		if gap < uint64(n)+1 {
			b.mu.Unlock()
			return runEscalate
		}
		step = gap / uint64(n+1)
	}
	// Link the run between x and x.next; no other item moves.
	lab, prev := lo, x
	for _, it := range items {
		lab += step
		it.place(b, lab, prev.next)
		prev.next = it
		prev = it
	}
	b.n += n
	b.mu.Unlock()
	return runDone
}

// placeAfterMaint inserts the caller's item it directly after x,
// splitting or relabeling x's bucket as needed. Caller holds l.maint,
// which keeps x's bucket assignment stable and serializes maintenance.
func (l *List) placeAfterMaint(x, it *Item) {
	b := x.bucket.Load()
	b.mu.Lock()
	if b.n >= bucketCap {
		b = l.split(b, x)
	}
	lab, ok := midAfter(x)
	if !ok {
		l.relabelBucket(b)
		if lab, ok = midAfter(x); !ok {
			panic("om: no label room after bucket relabel")
		}
	}
	it.place(b, lab, x.next)
	x.next = it
	b.n++
	b.mu.Unlock()
}

// place sets a fresh item's bucket, label and successor with plain
// stores, where an atomic store would cost an XCHG each (a third of an
// insert). Nothing reads the item before the bucket lock that links it is
// released and the caller publishes it, so every later atomic load is
// ordered after these stores. It relies on atomic.Uint64 and
// atomic.Pointer holding just their value, which TestAccountingSizes pins.
func (it *Item) place(b *bucket, lab uint64, next *Item) {
	*(**bucket)(unsafe.Pointer(&it.bucket)) = b
	*(*uint64)(unsafe.Pointer(&it.label)) = lab
	it.next = next
}

// midAfter returns a label strictly between x and its successor in x's
// bucket (the top of the label space when x is last). ok is false when
// no integer fits. Caller holds x's bucket lock.
func midAfter(x *Item) (uint64, bool) {
	lo, hi := x.label.Load(), uint64(0)
	if x.next != nil {
		hi = x.next.label.Load()
	}
	if hi == 0 {
		// Leave headroom by stepping a full span when possible.
		if lo <= ^uint64(0)-itemSpan {
			return lo + itemSpan, true
		}
		hi = ^uint64(0)
	}
	if hi-lo < 2 {
		return 0, false
	}
	return lo + (hi-lo)/2, true
}

// split divides bucket b in two, keeping the first half in b and moving
// the rest to a fresh bucket placed immediately after b in the top-level
// order. Caller holds l.maint and b.mu, and x is an item of b; split
// returns the bucket now holding x, with its lock held (the other
// half's lock released). The label rewrite — including the item→bucket
// moves — happens inside the seqlock write section, exactly as in the
// global-lock design, so concurrent Precedes reads retry rather than
// observe a half-moved item.
func (l *List) split(b *bucket, x *Item) *bucket {
	l.splits.Add(1)
	nb := &bucket{}
	nb.mu.Lock()
	nb.prev, nb.next = b, b.next
	if b.next != nil {
		b.next.prev = nb
	} else {
		l.tail = nb
	}
	b.next = nb
	l.buckets.Add(1)

	l.beginWrite()
	half := b.n / 2
	cut, inB := b.head, b.head == x
	for i := 1; i < half; i++ {
		cut = cut.next
		inB = inB || cut == x
	}
	nb.head, cut.next = cut.next, nil
	nb.n, b.n = b.n-half, half
	l.assignTopLabel(nb)
	for it := nb.head; it != nil; it = it.next {
		it.bucket.Store(nb)
	}
	// Only the half holding x takes the insert, so only its labels are
	// respread; the other half's still increase, which is all a bucket
	// needs.
	hot, cold := nb, b
	if inB {
		hot, cold = b, nb
	}
	relabelItems(hot)
	l.endWrite()

	cold.mu.Unlock()
	return hot
}

// relabelBucket rewrites all item labels in b with even spacing. Caller
// holds l.maint and b.mu.
func (l *List) relabelBucket(b *bucket) {
	l.relabels.Add(1)
	l.beginWrite()
	relabelItems(b)
	l.endWrite()
}

func relabelItems(b *bucket) {
	lab := uint64(0)
	for it := b.head; it != nil; it = it.next {
		lab += itemSpan
		it.label.Store(lab)
	}
}

// assignTopLabel gives nb (already linked after nb.prev) a top-level
// label strictly between its neighbours, renumbering a region of the
// top-level order when the local gap is exhausted. Caller holds l.maint
// and has already called beginWrite. Inserters never read bucket labels,
// so no bucket locks are needed beyond the split's own.
func (l *List) assignTopLabel(nb *bucket) {
	lo := nb.prev.label.Load()
	hi := l.bound
	if nb.next != nil {
		hi = nb.next.label.Load()
	}
	if hi-lo >= 2 {
		nb.label.Store(lo + (hi-lo)/2)
		return
	}
	l.renumberAround(nb.prev)
	lo = nb.prev.label.Load()
	hi = l.bound
	if nb.next != nil {
		hi = nb.next.label.Load()
	}
	if hi-lo < 2 {
		panic("om: top-level renumbering failed to open a gap")
	}
	nb.label.Store(lo + (hi-lo)/2)
}

// renumberAround implements prefix-range renumbering (the classic list
// labeling rebalance): find the smallest power-of-two label range around
// pivot that its buckets occupy sparsely enough, then spread them evenly
// across it. A range 2^j wide is accepted only if the spread leaves gaps
// of at least 2^(10+j/3): the density threshold falls by 2^(1/3) a level
// as in the classic analysis, so a renumbering leaves each sub-range
// well under its own threshold, and its hot spot takes at least ten
// halving splits before the next one. Falls back to a global renumbering
// across the whole label space; when even that cannot open gaps — every
// label in [0, bound) is packed — it escalates by widening the bound to
// the hard ceiling and spreading across the widened space instead of
// giving up (this last case used to panic; EXPERIMENTS ABL10/ABL11 has
// the history). The caller holds l.maint and has already entered the
// seqlock write section, so concurrent Precedes readers re-validate
// against the rewritten labels exactly as for any other renumbering.
func (l *List) renumberAround(pivot *bucket) {
	l.renumbers.Add(1)
	p := pivot.label.Load()
	first, last, count := pivot, pivot, 1
	for j := uint(2); j < 63; j++ {
		width := uint64(1) << j
		lo := p &^ (width - 1)
		hi := lo + width
		if hi > l.bound {
			break
		}
		// Grow the contiguous run of buckets whose labels lie in
		// [lo, hi). Labels are monotone along the bucket chain, and the
		// ranges nest, so each level extends the previous level's run.
		for first.prev != nil && first.prev.label.Load() >= lo {
			first = first.prev
			count++
		}
		for last.next != nil && last.next.label.Load() < hi {
			last = last.next
			count++
		}
		gap := width / uint64(count+1)
		if gap < 1<<(10+j/3) {
			continue
		}
		lab := lo + gap
		for b := first; count > 0; b = b.next {
			b.label.Store(lab)
			lab += gap
			count--
		}
		return
	}
	// Global renumber: spread every bucket across [gap, l.bound).
	n := 0
	for b := l.head; b != nil; b = b.next {
		n++
	}
	gap := l.bound / uint64(n+1)
	if gap < 2 && l.bound < l.hardBound {
		// Escalated global renumber: the configured space is packed past
		// half occupancy everywhere. Widen the bound to the hard ceiling
		// — labels are ordinals, not addresses, so nothing but this
		// renumbering has to know — and spread across the wider space.
		l.escalations.Add(1)
		l.renumbers.Add(1)
		l.bound = l.hardBound
		gap = l.bound / uint64(n+1)
	}
	if gap < 2 {
		// n+1 > hardBound/2 = 2^62 buckets: structurally unreachable
		// (each bucket holds ≥ bucketCap/2 items and hundreds of bytes).
		panic("om: top-level label space exhausted beyond the hard ceiling")
	}
	lab := gap
	for b := l.head; b != nil; b = b.next {
		b.label.Store(lab)
		lab += gap
	}
}

func (l *List) beginWrite() {
	// Transition to odd: readers started before this will retry.
	l.version.Add(1)
}

func (l *List) endWrite() {
	l.version.Add(1)
}

// Precedes reports whether a is strictly before b in the list order.
// It is safe to call concurrently with inserts; the query retries while a
// relabeling is in flight.
func (l *List) Precedes(a, b *Item) bool {
	if a == b {
		return false
	}
	for spin := 0; ; spin++ {
		v1 := l.version.Load()
		if v1&1 == 0 {
			ba, bb := a.bucket.Load(), b.bucket.Load()
			la, lb := ba.label.Load(), bb.label.Load()
			ia, ib := a.label.Load(), b.label.Load()
			if l.version.Load() == v1 {
				if ba != bb {
					return la < lb
				}
				return ia < ib
			}
		}
		if spin > 16 {
			runtime.Gosched()
		}
	}
}

// Compare returns -1 if a precedes b, +1 if b precedes a, and 0 if they
// are the same item.
func (l *List) Compare(a, b *Item) int {
	switch {
	case a == b:
		return 0
	case l.Precedes(a, b):
		return -1
	default:
		return 1
	}
}

// Order returns the items in list order. It is intended for tests and
// debugging on quiescent lists; it takes the maintenance lock and each
// bucket lock in turn.
func (l *List) Order() []*Item {
	l.maint.Lock()
	defer l.maint.Unlock()
	out := make([]*Item, 0, l.size.Load())
	for b := l.head; b != nil; b = b.next {
		b.mu.Lock()
		for it := b.head; it != nil; it = it.next {
			out = append(out, it)
		}
		b.mu.Unlock()
	}
	return out
}

// checkInvariants validates internal consistency (monotone labels, item
// bucket pointers, bucket counts, size accounting). Exposed through an
// exported wrapper in export_test.go for white-box tests; call on a
// quiescent list.
func (l *List) checkInvariants() error {
	l.maint.Lock()
	defer l.maint.Unlock()
	n := 0
	nb := int64(0)
	var prevTop uint64
	firstBucket := true
	for b := l.head; b != nil; b = b.next {
		b.mu.Lock()
		err := func() error {
			if !firstBucket && b.label.Load() <= prevTop {
				return fmt.Errorf("om: bucket labels not increasing (%d after %d)", b.label.Load(), prevTop)
			}
			prevTop = b.label.Load()
			firstBucket = false
			if b.head == nil && l.size.Load() > 0 && l.head != l.tail {
				return fmt.Errorf("om: empty bucket in multi-bucket list")
			}
			m := 0
			var prevItem uint64
			for it := b.head; it != nil; it = it.next {
				if it.bucket.Load() != b {
					return fmt.Errorf("om: item bucket pointer stale")
				}
				if m > 0 && it.label.Load() <= prevItem {
					return fmt.Errorf("om: item labels not increasing (%d after %d)", it.label.Load(), prevItem)
				}
				prevItem = it.label.Load()
				m++
			}
			if m != b.n || m > bucketCap {
				return fmt.Errorf("om: bucket holds %d items, count %d (cap %d)", m, b.n, bucketCap)
			}
			n += m
			if b.next == nil && b != l.tail {
				return fmt.Errorf("om: tail pointer stale")
			}
			return nil
		}()
		b.mu.Unlock()
		if err != nil {
			return err
		}
		nb++
	}
	if int64(n) != l.size.Load() {
		return fmt.Errorf("om: size %d but found %d items", l.size.Load(), n)
	}
	if nb != l.buckets.Load() {
		return fmt.Errorf("om: bucket count %d but found %d buckets", l.buckets.Load(), nb)
	}
	return nil
}
