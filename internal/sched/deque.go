package sched

// Chase–Lev lock-free work-stealing deque (Chase & Lev, SPAA'05, in the
// formulation of Lê et al., PPoPP'13, simplified by Go's sequentially
// consistent sync/atomic operations). The owning worker pushes and pops
// at the bottom without any synchronization beyond atomic loads/stores;
// thieves take from the top with a single CAS. The only contended
// operation is the pop-vs-steal race on the final element, resolved by
// that CAS on top.
//
// The buffer is a growable power-of-two ring published through an
// atomic pointer. Growth is owner-only: the owner copies the live window
// [top, bottom) into a ring twice the size and publishes it; a thief
// that loaded the old ring still reads a correct element, because
// growing never erases old slots and its CAS on top arbitrates
// ownership regardless of which generation it read from. Slots are
// never overwritten while live — push grows instead of wrapping onto an
// unconsumed index — so the element a thief reads at top t cannot
// change until some CAS advances top past t.
//
// Happens-before for job hand-off: push stores the slot and then
// bottom with sequentially consistent atomics, and both pop and steal
// load bottom (and, for steal, CAS top) before touching the slot, so
// everything the pusher did before push — in particular the
// closeStrand flush that precedes every push (see Task.Spawn/Create) —
// is visible to whichever worker obtains the job. This is the memory-
// ordering half of the StrandCloser contract; the program-order half
// (flush before the job exists) is at the call sites.
//
// Jobs claimed elsewhere (inline sync drains, Get claims) are skipped
// inside pop and steal without holding any lock: a dequeued job whose
// state is already taken is simply discarded and the dequeue retried.
// Dequeued-but-stale slots keep their job pointer until the slot is
// reused, pinning at most one ring of finished jobs — bounded by the
// ring size.

import (
	"sync/atomic"
	"unsafe"
)

// dequeInitSlots is the initial ring capacity; deep spawn recursion
// grows it (counted as sched.deque_grows).
const dequeInitSlots = 64

// dequeRing is one power-of-two ring generation. mask and the slot
// backing array are immutable after construction; only slot contents
// change.
type dequeRing struct {
	mask int64
	slot []atomic.Pointer[job]
}

func newDequeRing(n int64) *dequeRing {
	return &dequeRing{mask: n - 1, slot: make([]atomic.Pointer[job], n)}
}

func (r *dequeRing) get(i int64) *job    { return r.slot[i&r.mask].Load() }
func (r *dequeRing) put(i int64, j *job) { r.slot[i&r.mask].Store(j) }
func (r *dequeRing) capBytes() int64 {
	return int64(len(r.slot)) * int64(unsafe.Sizeof(atomic.Pointer[job]{}))
}

// chaseLev is the deque itself. top only ever increases (monotonic
// steal frontier); bottom is written only by the owner.
type chaseLev struct {
	top    atomic.Int64
	bottom atomic.Int64
	ring   atomic.Pointer[dequeRing]
}

func (d *chaseLev) init() { d.ring.Store(newDequeRing(dequeInitSlots)) }

// push appends j at the bottom. Owner only. Reports whether the ring
// had to grow.
func (d *chaseLev) push(j *job) (grew bool) {
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.ring.Load()
	if b-t > r.mask {
		r = d.grow(r, t, b)
		grew = true
	}
	r.put(b, j)
	d.bottom.Store(b + 1)
	return grew
}

// grow doubles the ring, copying the live window. Owner only; thieves
// holding the old ring stay correct (see the package comment).
func (d *chaseLev) grow(old *dequeRing, t, b int64) *dequeRing {
	r := newDequeRing(2 * (old.mask + 1))
	for i := t; i < b; i++ {
		r.put(i, old.get(i))
	}
	d.ring.Store(r)
	return r
}

// pop removes the newest pending job from the bottom, discarding jobs
// already taken elsewhere. Owner only; lock-free. The CAS on top is
// reached only when popping the final element, the one index thieves
// can contend for.
func (d *chaseLev) pop() *job {
	for {
		b := d.bottom.Load() - 1
		d.bottom.Store(b)
		t := d.top.Load()
		if t > b {
			// Empty: undo the reservation.
			d.bottom.Store(b + 1)
			return nil
		}
		r := d.ring.Load()
		j := r.get(b)
		if t == b {
			// Final element: race thieves for it on top.
			won := d.top.CompareAndSwap(t, t+1)
			d.bottom.Store(b + 1)
			if !won || j.state.Load() != 0 {
				// Lost to a thief, or the job was claimed inline;
				// either way the deque is now empty.
				return nil
			}
			return j
		}
		if j.state.Load() != 0 {
			continue // claimed inline (sync drain / get); discard
		}
		return j
	}
}

// steal removes the oldest pending job from the top. Thief side; a
// single CAS per obtained job. A lost CAS returns nil — the victim is
// not necessarily empty, but some other worker made progress on it, so
// the thief moves on rather than spinning here. Already-taken jobs are
// drained and skipped without any lock.
func (d *chaseLev) steal() *job {
	for {
		t := d.top.Load()
		b := d.bottom.Load()
		if t >= b {
			return nil // empty
		}
		r := d.ring.Load()
		j := r.get(t)
		if !d.top.CompareAndSwap(t, t+1) {
			return nil // contended: another thief or the owner's pop won
		}
		if j != nil && j.state.Load() == 0 {
			return j
		}
		// Claimed inline elsewhere: keep draining the top.
	}
}

// trim drops the run of already-taken jobs at the bottom of the deque.
// Owner only. Inline claims (sync drains, get claims) leave their
// entries behind as dead slots, and because they are the most recent
// pushes those slots sit at the bottom; without trimming, deep inline
// recursion accumulates one dead slot per drained spawn and the ring
// grows with the computation size instead of its span. Each removal
// follows the pop reservation protocol, so the final-element race with
// thieves stays arbitrated by the CAS on top; a live (or not yet
// visible) bottom entry stops the scan.
func (d *chaseLev) trim() {
	for {
		b := d.bottom.Load() - 1
		d.bottom.Store(b)
		t := d.top.Load()
		if t > b {
			d.bottom.Store(b + 1) // empty
			return
		}
		j := d.ring.Load().get(b)
		if j == nil || j.state.Load() == 0 {
			d.bottom.Store(b + 1) // live bottom entry: stop
			return
		}
		if t == b {
			// Dead final element: whether we win the CAS or a thief's
			// drain loop does, the slot is consumed; either way the
			// deque ends empty.
			d.top.CompareAndSwap(t, t+1)
			d.bottom.Store(b + 1)
			return
		}
		// Dead non-final entry: keep the reservation and scan down.
	}
}

// size is a racy lower-bound estimate of the pending-job count, used
// only by the pre-park work scan (a stale answer costs a spurious
// wake-cancel or one extra probe round, never correctness).
func (d *chaseLev) size() int64 {
	b := d.bottom.Load()
	t := d.top.Load()
	if b < t {
		return 0
	}
	return b - t
}

// memBytes reports the current ring's backing-array footprint
// (unsafe.Sizeof-derived; the sched.deque_bytes gauge sums it).
func (d *chaseLev) memBytes() int64 {
	r := d.ring.Load()
	if r == nil {
		return 0
	}
	return r.capBytes()
}
