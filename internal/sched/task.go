package sched

import "sforder/internal/accbuf"

// Task is the execution context of one function instance (the root body,
// a spawned child, or a future task body). User code receives a *Task
// and expresses parallelism through its methods. A Task must only be
// used by the function instance it was passed to; capturing it inside a
// spawned or created child is a programming error (children receive
// their own).
type Task struct {
	eng    *engine
	fut    *FutureTask
	frame  *frame
	cur    *Strand
	worker *worker

	body  func(*Task)
	bodyV func(*Task) any

	retval       any
	isFutureBody bool       // future-task body (root included)
	parentBlock  *syncBlock // spawned children: region to join on return
	label        string     // inherited by strands this instance creates

	// horizon is the checked-mode visibility horizon: the highest future
	// ID whose handle can structurally have flowed to this function
	// instance (paper §2 get-reachability). It starts at the creator's
	// horizon (closure capture), and rises when this instance creates a
	// future, gets one (the put publishes everything existing at the
	// put), or syncs spawned children (the join publishes their
	// creations). A Get of a future above the horizon means the handle
	// arrived through unsynchronized shared memory — a handle race.
	// Maintained only when Options.CheckStructure is set.
	horizon int64
}

// laneID is the dense per-worker index handed to lane-aware tracers;
// the serial executor is lane 0.
func (t *Task) laneID() int {
	if t.worker != nil {
		return t.worker.id
	}
	return 0
}

// Label tags the current strand and all later strands of this function
// instance (until relabeled) with a human-readable name that race
// reports include. Child instances start unlabeled.
func (t *Task) Label(name string) {
	t.label = name
	t.cur.setLabel(name)
}

// Strand returns the currently executing strand. Detector tests use it
// to name dag positions; workloads normally don't need it.
func (t *Task) Strand() *Strand { return t.cur }

// FutureTask returns the future task that owns the current strand.
func (t *Task) FutureTask() *FutureTask { return t.fut }

// ensureBlock returns the current sync region, opening one (and
// allocating its join placeholder strand) at the first spawn/create of
// the region. The second return value is the placeholder when it was
// freshly allocated, else nil — exactly what the Tracer expects.
func (t *Task) ensureBlock() (*syncBlock, *Strand) {
	if b := t.frame.block; b != nil {
		return b, nil
	}
	b := &syncBlock{placeholder: t.eng.newStrand(t.fut)}
	t.frame.block = b
	return b, b.placeholder
}

// Spawn forks fn as a child function instance that may run in parallel
// with the continuation of the caller. The child is joined by the next
// Sync (or the implicit sync at the end of the calling function
// instance).
func (t *Task) Spawn(fn func(*Task)) {
	e := t.eng
	e.cSpawns.Add(1)
	u := t.cur
	// u ends at the spawn: flush deferred accesses before the child (a
	// dag successor) becomes runnable and before OnSpawn grows the dag.
	e.closeStrand(u)
	b, placeholder := t.ensureBlock()
	child := e.newStrand(t.fut)
	cont := e.newStrand(t.fut)
	cont.setLabel(t.label)
	cont.lane = t.laneID()
	e.emitSpawn(cont.lane, u, child, cont, placeholder)
	j := &job{task: &Task{
		eng:         e,
		fut:         t.fut,
		frame:       &frame{},
		cur:         child,
		body:        fn,
		parentBlock: b,
		horizon:     t.horizon,
	}}
	b.mu.Lock()
	b.spawned = true
	b.outstanding++
	b.children = append(b.children, j)
	b.mu.Unlock()
	e.pending.Add(1)
	t.cur = cont
	if e.opts.Serial {
		if j.take() {
			e.runInline(j, nil)
		}
		return
	}
	t.worker.push(j)
}

// Sync waits until all children spawned since the previous Sync have
// returned. Futures started with Create are not affected (their
// completion is awaited by Get). A Sync with no preceding spawns in the
// region is a no-op.
func (t *Task) Sync() {
	b := t.frame.block
	if b == nil {
		return
	}
	b.mu.Lock()
	spawned := b.spawned
	b.mu.Unlock()
	if !spawned {
		// Only creates so far: the real dag has nothing to join, and
		// the region stays open so the placeholder keeps standing in
		// for the pseudo-SP-dag join of those futures.
		return
	}
	t.closeRegion(b)
}

// closeRegion drains and joins the sync region and steps the task onto
// its join strand.
func (t *Task) closeRegion(b *syncBlock) {
	e := t.eng
	// The pre-sync strand ends here: flush before draining children
	// inline (they are logically parallel to it and must check against
	// its records) and before OnSync activates the join strand.
	e.closeStrand(t.cur)
	e.drainAndWait(b, t.worker)
	k := t.cur
	s := b.placeholder
	s.setLabel(t.label)
	s.lane = t.laneID()
	e.cSyncs.Add(1)
	e.emitSync(s.lane, k, s, b.childSinks)
	t.frame.block = nil
	t.cur = s
	if e.check {
		b.mu.Lock()
		if b.joinEpoch > t.horizon {
			t.horizon = b.joinEpoch
		}
		b.mu.Unlock()
	}
}

// drainAndWait first runs not-yet-started spawned children of the region
// inline on the current worker (the child-stealing discipline), then
// blocks until children stolen by other workers have returned.
func (e *engine) drainAndWait(b *syncBlock, w *worker) {
	for {
		b.mu.Lock()
		var j *job
		if n := len(b.children); n > 0 {
			j = b.children[n-1]
			b.children = b.children[:n-1]
		}
		b.mu.Unlock()
		if j == nil {
			break
		}
		if j.take() {
			e.runInline(j, w)
		}
	}
	b.mu.Lock()
	for b.outstanding > 0 {
		if b.waitCh == nil {
			b.waitCh = make(chan struct{})
		}
		ch := b.waitCh
		b.mu.Unlock()
		select {
		case <-ch:
		case <-e.abortCh:
			panic(errAbortUnwind{})
		}
		b.mu.Lock()
	}
	b.mu.Unlock()
}

// Create starts fn as a new future task that may run in parallel with
// the continuation of the caller and returns its handle. The handle must
// be touched by Get at most once (single-touch), and only at program
// points sequentially after the Create — the structured-future
// restrictions (paper §2). Create's value is retrieved by Get.
func (t *Task) Create(fn func(*Task) any) *Future {
	e := t.eng
	u := t.cur
	// u ends at the create: flush before the future body can run.
	e.closeStrand(u)
	_, placeholder := t.ensureBlock()
	ft := e.newFuture(t.fut)
	childHorizon := t.horizon
	if e.check {
		ft.createPC = callerPC(1)
		if id := int64(ft.ID); id > t.horizon {
			t.horizon = id
		}
	}
	first := e.newStrand(ft)
	cont := e.newStrand(t.fut)
	cont.setLabel(t.label)
	cont.lane = t.laneID()
	e.emitCreate(cont.lane, u, first, cont, placeholder, ft)
	j := &job{task: &Task{
		eng:          e,
		fut:          ft,
		frame:        &frame{},
		cur:          first,
		bodyV:        fn,
		isFutureBody: true,
		horizon:      childHorizon,
	}}
	ft.job = j
	e.pending.Add(1)
	t.cur = cont
	if e.opts.Serial {
		if j.take() {
			e.runInline(j, nil)
		}
	} else {
		t.worker.push(j)
	}
	return &Future{ft: ft}
}

// Get waits for the future to complete and returns its value. If the
// future task has not started yet, the calling worker claims and runs it
// inline, so Get never deadlocks. Touching a handle twice panics: it
// violates the single-touch restriction of structured futures. With
// Options.CheckStructure the panic additionally reports the Create site
// and the first Get site, and Get also verifies the get-reachability
// restriction (paper §2) before blocking.
func (t *Task) Get(f *Future) any {
	e := t.eng
	e.cGets.Add(1)
	// The pre-get strand ends here: flush before possibly running the
	// future body inline and before OnGet activates the get strand.
	e.closeStrand(t.cur)
	ft := f.ft
	if !ft.gotten.CompareAndSwap(false, true) {
		panic(ft.doubleTouchMsg(callerPC(1)))
	}
	if e.check {
		t.checkGetStructure(ft, callerPC(1))
	}
	select {
	case <-ft.done:
	default:
		if ft.job.take() {
			e.runInline(ft.job, t.worker)
		} else {
			select {
			case <-ft.done:
			case <-e.abortCh:
				panic(errAbortUnwind{})
			}
		}
	}
	if e.check && ft.putEpoch > t.horizon {
		// The put publishes every handle existing when the body
		// finished: they may have flowed here through the got value or
		// memory the body wrote before completing.
		t.horizon = ft.putEpoch
	}
	u := t.cur
	g := e.newStrand(t.fut)
	g.setLabel(t.label)
	g.lane = t.laneID()
	e.emitGet(g.lane, u, g, ft)
	t.cur = g
	return ft.value
}

// implicitSync ends a function instance: it joins the open sync region
// (if any) and returns the instance's sink strand.
func (t *Task) implicitSync() *Strand {
	b := t.frame.block
	if b == nil {
		return t.cur
	}
	t.closeRegion(b)
	return t.cur
}

// Read records an instrumented read of the shadow address addr by the
// current strand. When sched buffers the checker's accesses (PageSink),
// one that the strand's buffer already covers ends here.
func (t *Task) Read(addr uint64) {
	e := t.eng
	if e.count {
		e.cReads.Add(1)
	}
	if e.checker != nil {
		if e.apply == nil {
			e.checker.Read(t.cur, addr)
		} else if b := t.cur.Buf; b == nil {
			Keep(t.cur, addr, accbuf.AccessRead, e.apply)
		} else if pb, covered := b.Lookup(addr, accbuf.AccessRead); !covered {
			keepTo(t.cur, b, pb, addr, accbuf.AccessRead, e.apply)
		}
	}
}

// Write is Read for an instrumented write.
func (t *Task) Write(addr uint64) {
	e := t.eng
	if e.count {
		e.cWrites.Add(1)
	}
	if e.checker != nil {
		if e.apply == nil {
			e.checker.Write(t.cur, addr)
		} else if b := t.cur.Buf; b == nil {
			Keep(t.cur, addr, accbuf.AccessWrite, e.apply)
		} else if pb, covered := b.Lookup(addr, accbuf.AccessWrite); !covered {
			keepTo(t.cur, b, pb, addr, accbuf.AccessWrite, e.apply)
		}
	}
}

// ReadRange records instrumented reads of the n shadow addresses addr,
// addr+1, …, addr+n-1 by the current strand: the same as n calls of Read
// in that order, taken a page at a time when sched buffers the checker's
// accesses (PageSink).
func (t *Task) ReadRange(addr uint64, n int) { t.accessRange(addr, n, accbuf.AccessRead) }

// WriteRange is ReadRange for instrumented writes.
func (t *Task) WriteRange(addr uint64, n int) { t.accessRange(addr, n, accbuf.AccessWrite) }

func (t *Task) accessRange(addr uint64, n int, kind accbuf.AccessKind) {
	if n <= 0 {
		return
	}
	e := t.eng
	if e.count {
		if kind == accbuf.AccessRead {
			e.cReads.Add(uint64(n))
		} else {
			e.cWrites.Add(uint64(n))
		}
	}
	switch {
	case e.checker == nil:
	case e.apply != nil:
		KeepRange(t.cur, addr, n, kind, e.apply)
	case kind == accbuf.AccessRead:
		for ; n > 0; n-- {
			e.checker.Read(t.cur, addr)
			addr++
		}
	default:
		for ; n > 0; n-- {
			e.checker.Write(t.cur, addr)
			addr++
		}
	}
}

// batchCap bounds how many entries a strand's buffer keeps before an early
// drain, so a long strand cannot defer unboundedly much work to its close.
const batchCap = 1024

// Keep, KeepRange and CloseBuffer are the strand buffer's one rule, which
// Task.Read and Write keep for a PageSink, and a sink's own Read, Write
// and StrandClose may call. Keep puts one access of s into s's buffer,
// unless an earlier access of s subsumes it, and drains the buffer to
// apply once batchCap entries are pending; it reports whether it kept it.
func Keep(s *Strand, addr uint64, kind accbuf.AccessKind, apply func(s *Strand, page uint64, reads, writes *accbuf.SlotSet)) bool {
	b := s.Buffer()
	if !b.Add(addr, kind) {
		return false
	}
	if b.Pending() >= batchCap {
		drain(s, b, apply)
	}
	return true
}

// keepTo is Keep past Task.Read's and Write's hit test, on the batch
// b.Lookup found there, or nil: a kept access looks its page up once.
func keepTo(s *Strand, b *accbuf.StrandBuffer, pb *accbuf.PageBatch, addr uint64, kind accbuf.AccessKind, apply func(s *Strand, page uint64, reads, writes *accbuf.SlotSet)) {
	if b.AddTo(pb, addr, kind) && b.Pending() >= batchCap {
		drain(s, b, apply)
	}
}

// KeepRange is Keep of addr, addr+1, …, addr+n-1, taken a page at a time:
// a drain comes at the first page end past batchCap.
func KeepRange(s *Strand, addr uint64, n int, kind accbuf.AccessKind, apply func(s *Strand, page uint64, reads, writes *accbuf.SlotSet)) {
	b := s.Buffer()
	for n > 0 {
		m := min(n, int(1<<accbuf.PageBits-addr&(1<<accbuf.PageBits-1))) // the range's addresses on addr's page
		b.AddRange(addr, m, kind)
		if b.Pending() >= batchCap {
			drain(s, b, apply)
		}
		addr += uint64(m)
		n -= m
	}
}

// CloseBuffer drains s's buffer to apply, then takes it off s and releases
// it, so a second call does nothing (the engine's close after an
// abort-time best-effort one). apply may use the buffer, still on s.
func CloseBuffer(s *Strand, apply func(s *Strand, page uint64, reads, writes *accbuf.SlotSet)) {
	if b := s.Buf; b != nil {
		drain(s, b, apply)
		s.Buf = nil
		b.Release()
	}
}

func drain(s *Strand, b *accbuf.StrandBuffer, apply func(s *Strand, page uint64, reads, writes *accbuf.SlotSet)) {
	b.Drain(func(page uint64, reads, writes *accbuf.SlotSet) { apply(s, page, reads, writes) })
}
