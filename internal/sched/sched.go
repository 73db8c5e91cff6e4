// Package sched is a task-parallel runtime with fork-join and structured
// future parallelism — the substrate the race detectors instrument. It
// stands in for the extended Cilk-F work-stealing runtime used by the
// paper (§4): user code expresses parallelism with Spawn/Sync (fork-join)
// and Create/Get (futures), and the engine executes it either serially
// (the left-to-right depth-first traversal, required by the MultiBags
// baseline) or in parallel with per-worker deques and random work
// stealing.
//
// The engine reports every dag-construction event to a Tracer — the hook
// the reachability components (SF-Order, F-Order, MultiBags, the dag
// recorder) listen on — and every instrumented memory access to an
// AccessChecker (the full race detectors). Running with a nil Tracer and
// nil AccessChecker gives the uninstrumented baseline; Tracer-only is the
// paper's "reach" configuration; both is "full".
//
// # Strands and events
//
// A Strand is a dag node: a maximal run of instructions with no parallel
// control. Executing spawn ends the current strand u and begins two new
// strands — the child's first strand and the spawner's continuation.
// Executing create does the same and additionally begins a new future
// task. Executing sync ends the current strand and begins the sync
// strand, which joins all children spawned since the previous sync.
// Executing get ends the current strand and begins the get strand, which
// additionally has an incoming edge from the gotten future's put strand.
//
// Each sync region's join strand is allocated eagerly at the first
// spawn/create of the region and handed to the Tracer as the placeholder:
// the SF-Order order-maintenance lists must place it before the child
// subdags grow (see internal/core). In the paper's model the root
// computation is itself future task 0, and every function instance ends
// with an implicit sync.
package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"sforder/internal/accbuf"
	"sforder/internal/obsv"
)

// Strand is one node of the computation dag. The engine allocates
// strands; detectors hang their per-node state off Det, the dag recorder
// off Rec, and the strand's accesses wait in the buffer on Buf from the
// first one sched keeps to the strand's close (PageSink). A Strand's
// identity is its pointer; ID is a dense ordinal for logging and hashing.
type Strand struct {
	ID  uint64
	Fut *FutureTask          // future task (SP sub-dag) owning this strand
	Det any                  // detector payload (owned by the configured Tracer)
	Rec any                  // recorder payload (owned by the dag recorder)
	Buf *accbuf.StrandBuffer // access buffer (owned by sched's Keep and CloseBuffer; nil once closed)
	// lane (see Lane) also keeps a Strand at 72 bytes: in the 64-byte size
	// class dag-futures' reach_overhead_t1 reads 5-7% worse (EXPERIMENTS ABL7).
	lane int

	label atomic.Pointer[string] // optional user label, see Task.Label
}

// Label returns the user label attached to the strand's region, or "".
func (s *Strand) Label() string {
	if p := s.label.Load(); p != nil {
		return *p
	}
	return ""
}

// Lane returns the lane of the worker running the strand, stamped as it
// starts (0 when serial or not run by the engine); it never changes.
func (s *Strand) Lane() int { return s.lane }

// Buffer returns the strand's access buffer, pooled from the first call
// until CloseBuffer takes it off the strand and releases it.
func (s *Strand) Buffer() *accbuf.StrandBuffer {
	if s.Buf == nil {
		s.Buf = accbuf.Get()
	}
	return s.Buf
}

func (s *Strand) setLabel(l string) {
	if l == "" {
		return
	}
	s.label.Store(&l)
}

func (s *Strand) String() string {
	if s == nil {
		return "<nil strand>"
	}
	return fmt.Sprintf("s%d/f%d", s.ID, s.Fut.ID)
}

// FutureTask identifies one future task: the root computation (ID 0) or
// a task started with Create. Each future task is a series-parallel
// sub-dag of the whole SF-dag.
type FutureTask struct {
	ID     int
	Parent *FutureTask // creating future task, nil for the root
	Det    any         // detector payload (e.g. SF-Order's cp bitmap)

	last   *Strand // put strand, set when the task completes
	value  any
	done   chan struct{}
	gotten atomic.Bool
	job    *job // the task's schedulable body, claimable by Get

	// Checked-mode state (Options.CheckStructure); see task.go.
	createPC uintptr        // call site of the Create
	firstGet atomic.Uintptr // call site of the first (winning) Get
	putEpoch int64          // highest future ID existing at the put
}

// Last returns the task's put strand (nil until the task completes).
func (f *FutureTask) Last() *Strand { return f.last }

// SetLast records the task's put strand. The engine assigns last itself
// when a body completes; SetLast exists for code that reconstructs
// futures outside the engine — the offline replay (internal/replay)
// rebuilds each FutureTask from a capture and must re-establish the put
// strand before feeding the corresponding get event to a Tracer.
func (f *FutureTask) SetLast(s *Strand) { f.last = s }

// Future is the user-visible handle returned by Task.Create.
type Future struct{ ft *FutureTask }

// Task returns the underlying future task metadata, for detectors and
// tests.
func (f *Future) Task() *FutureTask { return f.ft }

// Tracer observes dag construction. The engine may invoke it from
// multiple workers concurrently, but guarantees per-strand ordering: the
// event introducing a strand happens-before any event or access naming
// it, and OnSync observes all child sinks of the joined region.
//
// placeholder is non-nil on the first OnSpawn/OnCreate of a sync region:
// it is the join strand that a later OnSync (explicit or implicit)
// activates.
type Tracer interface {
	OnRoot(root *Strand)
	OnSpawn(u, child, cont, placeholder *Strand)
	OnCreate(u, first, cont, placeholder *Strand, f *FutureTask)
	OnSync(k, s *Strand, childSinks []*Strand)
	OnReturn(sink *Strand)
	OnPut(sink *Strand, f *FutureTask)
	OnGet(u, g *Strand, f *FutureTask)
}

// LaneTracer is optionally implemented by a Tracer that keeps
// per-worker state, such as the allocation arenas of SF-Order. When
// Options.Tracer itself implements it (a Tracer buried inside a
// MultiTracer is not detected and falls back to the plain methods), the
// engine calls SetLanes once, before OnRoot, with the number of lanes —
// the worker count, or 1 for the serial executor — and then routes the
// allocating dag events (spawn, create, sync, get) through the *Lane
// variants, passing the executing worker's lane index.
//
// Lane exclusivity: the engine never issues two events for the same
// lane concurrently, because a lane is a worker and each worker runs
// one strand at a time; the lane's state therefore needs no locking.
// The non-lane events (OnRoot, OnReturn, OnPut) keep their plain forms.
type LaneTracer interface {
	Tracer
	SetLanes(n int)
	OnSpawnLane(lane int, u, child, cont, placeholder *Strand)
	OnCreateLane(lane int, u, first, cont, placeholder *Strand, f *FutureTask)
	OnSyncLane(lane int, k, s *Strand, childSinks []*Strand)
	OnGetLane(lane int, u, g *Strand, f *FutureTask)
}

// AccessChecker observes instrumented memory accesses (the full race
// detection configuration).
type AccessChecker interface {
	Read(s *Strand, addr uint64)
	Write(s *Strand, addr uint64)
}

// StrandCloser is optionally implemented by an AccessChecker that defers
// per-strand work. The engine calls StrandClose exactly once per ended
// strand, at the point the strand's last access has happened and before
// the tracer event ending it — and therefore before any dag-successor
// strand can begin executing. Serial and parallel engines both honor it.
type StrandCloser interface {
	StrandClose(s *Strand)
}

// PageSink is an AccessChecker whose accesses sched buffers for it. If
// Options.Checker itself is one (a wrapper is not, and so sees every
// access), the run counts nothing (Options.Stats) and SkipCovered reports
// true when Run starts, sched keeps the strand buffer's rule in place of
// Read and Write (Keep, KeepRange), and the sink gets each strand's
// accesses a shadow page at a time, at an early drain and at the strand's
// close. With the gate off it is an ordinary checker. Either way its
// StrandClose drains and releases the strand's buffer (CloseBuffer).
type PageSink interface {
	AccessChecker
	StrandCloser
	SkipCovered() bool
	// ApplyPage takes s's drained accesses to one shadow page: the slots
	// read and the slots written, a slot in both read first. It must not
	// retain the sets.
	ApplyPage(s *Strand, page uint64, reads, writes *accbuf.SlotSet)
}

// MultiTracer fans events out to several tracers in order.
type MultiTracer []Tracer

// SetLanes hands n to each member with a SetLanes method (Options.Aux).
func (m MultiTracer) SetLanes(n int) {
	for _, t := range m {
		if l, ok := t.(interface{ SetLanes(int) }); ok {
			l.SetLanes(n)
		}
	}
}

func (m MultiTracer) OnRoot(root *Strand) {
	for _, t := range m {
		t.OnRoot(root)
	}
}
func (m MultiTracer) OnSpawn(u, child, cont, placeholder *Strand) {
	for _, t := range m {
		t.OnSpawn(u, child, cont, placeholder)
	}
}
func (m MultiTracer) OnCreate(u, first, cont, placeholder *Strand, f *FutureTask) {
	for _, t := range m {
		t.OnCreate(u, first, cont, placeholder, f)
	}
}
func (m MultiTracer) OnSync(k, s *Strand, childSinks []*Strand) {
	for _, t := range m {
		t.OnSync(k, s, childSinks)
	}
}
func (m MultiTracer) OnReturn(sink *Strand) {
	for _, t := range m {
		t.OnReturn(sink)
	}
}
func (m MultiTracer) OnPut(sink *Strand, f *FutureTask) {
	for _, t := range m {
		t.OnPut(sink, f)
	}
}
func (m MultiTracer) OnGet(u, g *Strand, f *FutureTask) {
	for _, t := range m {
		t.OnGet(u, g, f)
	}
}

// Options configures Run.
type Options struct {
	// Workers is the number of worker goroutines for the parallel
	// engine; 0 means runtime.GOMAXPROCS(0). Ignored when Serial.
	Workers int
	// Serial selects the sequential left-to-right depth-first executor
	// (the execution order MultiBags requires).
	Serial bool
	// Tracer receives dag-construction events; nil disables tracing
	// (the "base" configuration).
	Tracer Tracer
	// Checker receives instrumented memory accesses; nil disables them
	// (the "base" and "reach" configurations).
	Checker AccessChecker
	// CheckStructure enables the on-the-fly structured-futures checker:
	// every Create and Get additionally verifies the SF restrictions
	// (paper §2) in O(1) per operation — single-touch with full
	// create/first-get/second-get site reporting, gets from inside the
	// created task (which would otherwise deadlock), and handles that
	// flowed backwards against the program order (a get the create's
	// continuation cannot reach). Violations panic with the offending
	// source sites; in parallel mode the panic surfaces as Run's error.
	// Off by default: the unchecked paths stay free of the site-capture
	// and visibility-horizon bookkeeping.
	CheckStructure bool
	// Aux, when non-nil, receives every dag-construction event alongside
	// the primary Tracer, always through the plain (non-lane) methods —
	// the hook trace recorders attach to without disturbing the primary
	// tracer's LaneTracer routing. Like the Chrome trace adapter it is
	// fed after the lane-aware tracer at each event site. Aux (or its
	// members) with a SetLanes method gets the lane count before OnRoot.
	Aux Tracer
	// Stats, when non-nil, receives the engine's execution counters as
	// live gauges under sched.* names at the start of Run; the registry
	// may be snapshotted while the run is in flight. It also turns on the
	// read/write counters (sched.reads/sched.writes, Figure 3), so a nil
	// registry leaves baseline timing runs free of per-access atomics.
	Stats *obsv.Registry
	// Trace, when non-nil, receives the strand timeline in Chrome
	// trace-event form: a B/E pair bracketing each strand's lifetime
	// (pid obsv.TracePidStrands, tid = strand ID), instant events for
	// spawn/create/sync/put/get edges, and steal instants (pid
	// obsv.TracePidSched, tid = thief worker). Nil costs one pointer
	// check per dag event and nothing per memory access.
	Trace *obsv.TraceWriter
}

// Counts are cheap engine-side execution statistics (Figure 3).
type Counts struct {
	Strands uint64 // dag nodes
	Futures uint64 // future tasks, root included
	Spawns  uint64
	Syncs   uint64 // materialized sync strands, implicit ones included
	Gets    uint64
	Reads   uint64 // instrumented reads
	Writes  uint64 // instrumented writes
	Steals  uint64 // jobs taken from another worker's deque
}

// ErrAborted is returned by Run when a worker panicked; the panic value
// is wrapped into the returned error.
var ErrAborted = errors.New("sched: execution aborted")

// errAbortUnwind is panicked internally to unwind blocked tasks after an
// abort; runJob swallows it.
type errAbortUnwind struct{}

type engine struct {
	opts       Options
	tracer     Tracer
	laneTracer LaneTracer // non-nil when opts.Tracer wants lane routing
	auxTracer  Tracer     // trace adapter, fed alongside laneTracer
	checker    AccessChecker
	closer     StrandCloser // non-nil when the checker wants strand-close hooks
	check      bool         // Options.CheckStructure, hoisted for the hot paths
	count      bool         // Options.Stats != nil: Task.Read/Write count accesses
	// apply is the checker's ApplyPage when sched buffers its accesses
	// (PageSink), else nil: a method value, not an interface, so the
	// engine stays 384 bytes, a size class of its own (a 16-byte field
	// made it 392 bytes and dag-futures' full_overhead_tp and
	// record_overhead_tp 7% worse, EXPERIMENTS RANGE). Task.Read and
	// Write load it on every access, so it sits on checker's cache line,
	// not on the last one, which the workers' pending and parked counters
	// keep writing (EXPERIMENTS ONEBUF).
	apply func(s *Strand, page uint64, reads, writes *accbuf.SlotSet)

	strandID atomic.Uint64
	futureID atomic.Int64

	cStrands, cFutures, cSpawns, cSyncs, cGets, cReads, cWrites, cSteals atomic.Uint64
	cStealFails, cParks, cWakes, cDequeGrows                             atomic.Uint64

	workers     []*worker
	pending     atomic.Int64 // unfinished jobs
	parkedCount atomic.Int64 // workers currently parked (or committing to park)

	abortOnce sync.Once
	abortCh   chan struct{}
	abortErr  atomic.Value // error

	trace *obsv.TraceWriter // Options.Trace, consulted for steal instants
}

// Run executes main under the given options and returns the engine
// counts. A non-nil error means a worker panicked (parallel mode); in
// serial mode panics propagate to the caller.
func Run(opts Options, main func(*Task)) (Counts, error) {
	e := &engine{
		opts:    opts,
		tracer:  opts.Tracer,
		checker: opts.Checker,
		check:   opts.CheckStructure,
		count:   opts.Stats != nil,
		trace:   opts.Trace,
		abortCh: make(chan struct{}),
	}
	if c, ok := opts.Checker.(StrandCloser); ok {
		e.closer = c
	}
	// The worker count is resolved before OnRoot so a LaneTracer learns
	// its lane count before the first event.
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	lanes := w
	if opts.Serial {
		lanes = 1
	}
	if lt, ok := opts.Tracer.(LaneTracer); ok {
		e.laneTracer = lt
		lt.SetLanes(lanes)
	}
	if l, ok := opts.Aux.(interface{ SetLanes(int) }); ok {
		l.SetLanes(lanes)
	}
	// Auxiliary tracers (Options.Aux, the Chrome trace adapter) ride
	// alongside the primary tracer: appended to the plain chain, and —
	// when the primary is lane-routed — fed separately by the emit*
	// helpers so lane routing is undisturbed.
	var aux []Tracer
	if opts.Aux != nil {
		aux = append(aux, opts.Aux)
	}
	if opts.Trace != nil {
		aux = append(aux, &traceTracer{tw: opts.Trace})
	}
	if len(aux) > 0 {
		var at Tracer = MultiTracer(aux)
		if len(aux) == 1 {
			at = aux[0]
		}
		e.auxTracer = at
		if e.tracer != nil {
			e.tracer = MultiTracer{e.tracer, at}
		} else {
			e.tracer = at
		}
	}
	if opts.Stats != nil {
		e.registerStats(opts.Stats)
	}
	if c, ok := opts.Checker.(PageSink); ok && !e.count && c.SkipCovered() {
		e.apply = c.ApplyPage
	}
	rootFut := e.newFuture(nil)
	rootStrand := e.newStrand(rootFut)
	if e.tracer != nil {
		e.tracer.OnRoot(rootStrand)
	}
	rootTask := &Task{
		eng:          e,
		fut:          rootFut,
		cur:          rootStrand,
		frame:        &frame{},
		body:         main,
		isFutureBody: true,
	}

	if opts.Serial {
		e.runBody(rootTask, nil)
		return e.countsSnapshot(), nil
	}

	for i := 0; i < w; i++ {
		wk := &worker{
			eng:        e,
			id:         i,
			rng:        rand.New(rand.NewSource(int64(i + 1))),
			lastVictim: -1,
			parkSig:    make(chan struct{}, 1),
		}
		wk.cl.init()
		e.workers = append(e.workers, wk)
	}
	if opts.Stats != nil {
		// Registered only now, with e.workers fully built, so a snapshot
		// taken while the run is in flight reads the worker slice through
		// the registry's mutex (registration happens-before any snapshot
		// that observes the gauge) and the rings through their atomic
		// pointers — no unsynchronized state.
		opts.Stats.RegisterFunc("sched.deque_bytes", func() int64 {
			var b int64
			for _, wk := range e.workers {
				b += wk.cl.memBytes()
			}
			return b
		})
	}
	e.pending.Store(1)
	e.workers[0].push(&job{task: rootTask})

	var wg sync.WaitGroup
	for _, wk := range e.workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			wk.loop()
		}(wk)
	}
	wg.Wait()
	if err, ok := e.abortErr.Load().(error); ok && err != nil {
		return e.countsSnapshot(), err
	}
	return e.countsSnapshot(), nil
}

func (e *engine) countsSnapshot() Counts {
	return Counts{
		Strands: e.cStrands.Load(),
		Futures: e.cFutures.Load(),
		Spawns:  e.cSpawns.Load(),
		Syncs:   e.cSyncs.Load(),
		Gets:    e.cGets.Load(),
		Reads:   e.cReads.Load(),
		Writes:  e.cWrites.Load(),
		Steals:  e.cSteals.Load(),
	}
}

// registerStats publishes the engine counters as live gauges. The
// closures read the same atomics the hot paths update, so enabling stats
// changes nothing about execution.
func (e *engine) registerStats(r *obsv.Registry) {
	gauge := func(name string, c *atomic.Uint64) {
		r.RegisterFunc(name, func() int64 { return int64(c.Load()) })
	}
	gauge("sched.strands", &e.cStrands)
	gauge("sched.futures", &e.cFutures)
	gauge("sched.spawns", &e.cSpawns)
	gauge("sched.syncs", &e.cSyncs)
	gauge("sched.gets", &e.cGets)
	gauge("sched.reads", &e.cReads)
	gauge("sched.writes", &e.cWrites)
	gauge("sched.steals", &e.cSteals)
	gauge("sched.steal_fails", &e.cStealFails)
	gauge("sched.parks", &e.cParks)
	gauge("sched.wakes", &e.cWakes)
	gauge("sched.deque_grows", &e.cDequeGrows)
}

func (e *engine) newStrand(f *FutureTask) *Strand {
	e.cStrands.Add(1)
	return &Strand{ID: e.strandID.Add(1) - 1, Fut: f}
}

func (e *engine) newFuture(parent *FutureTask) *FutureTask {
	e.cFutures.Add(1)
	return &FutureTask{
		ID:     int(e.futureID.Add(1) - 1),
		Parent: parent,
		done:   make(chan struct{}),
	}
}

// emitSpawn routes OnSpawn either through the lane-aware tracer (plus
// the trace adapter, which is outside the MultiTracer in that case) or
// through the plain tracer chain. emitCreate/emitSync/emitGet mirror it.
func (e *engine) emitSpawn(lane int, u, child, cont, placeholder *Strand) {
	if lt := e.laneTracer; lt != nil {
		lt.OnSpawnLane(lane, u, child, cont, placeholder)
		if e.auxTracer != nil {
			e.auxTracer.OnSpawn(u, child, cont, placeholder)
		}
		return
	}
	if e.tracer != nil {
		e.tracer.OnSpawn(u, child, cont, placeholder)
	}
}

func (e *engine) emitCreate(lane int, u, first, cont, placeholder *Strand, f *FutureTask) {
	if lt := e.laneTracer; lt != nil {
		lt.OnCreateLane(lane, u, first, cont, placeholder, f)
		if e.auxTracer != nil {
			e.auxTracer.OnCreate(u, first, cont, placeholder, f)
		}
		return
	}
	if e.tracer != nil {
		e.tracer.OnCreate(u, first, cont, placeholder, f)
	}
}

func (e *engine) emitSync(lane int, k, s *Strand, childSinks []*Strand) {
	if lt := e.laneTracer; lt != nil {
		lt.OnSyncLane(lane, k, s, childSinks)
		if e.auxTracer != nil {
			e.auxTracer.OnSync(k, s, childSinks)
		}
		return
	}
	if e.tracer != nil {
		e.tracer.OnSync(k, s, childSinks)
	}
}

func (e *engine) emitGet(lane int, u, g *Strand, f *FutureTask) {
	if lt := e.laneTracer; lt != nil {
		lt.OnGetLane(lane, u, g, f)
		if e.auxTracer != nil {
			e.auxTracer.OnGet(u, g, f)
		}
		return
	}
	if e.tracer != nil {
		e.tracer.OnGet(u, g, f)
	}
}

// closeStrand notifies the checker that s has ended. Call sites are the soundness-critical part: each sits
// after s's last possible access and before the tracer event ending s, so
// a deferring checker flushes while the reachability structures still
// describe s's execution and before any dag successor of s runs.
func (e *engine) closeStrand(s *Strand) {
	if e.closer != nil {
		e.closer.StrandClose(s)
	}
}

func (e *engine) abort(v any) {
	e.abortOnce.Do(func() {
		e.abortErr.Store(fmt.Errorf("%w: %v", ErrAborted, v))
		close(e.abortCh)
	})
}

func (e *engine) aborted() bool {
	select {
	case <-e.abortCh:
		return true
	default:
		return false
	}
}

// frame is one function instance: the root body, a spawned child body,
// or a future task body. It tracks the current sync region.
type frame struct {
	block *syncBlock
}

// syncBlock is a sync region: the spawns/creates since the last sync of
// one function instance.
type syncBlock struct {
	mu          sync.Mutex
	placeholder *Strand // the join strand, allocated at first branch
	spawned     bool    // a spawn (not just creates) occurred in region
	outstanding int     // spawned children not yet returned
	children    []*job  // spawned child jobs, for inline draining
	childSinks  []*Strand
	waitCh      chan struct{}
	joinEpoch   int64 // checked mode: max future ID visible to a joined child
}

// job is a schedulable unit: the root body, a spawned child body, or a
// future task body, all described by their pre-built Task context.
type job struct {
	state atomic.Int32 // 0 pending, 1 taken
	task  *Task
}

func (j *job) take() bool { return j.state.CompareAndSwap(0, 1) }

// worker executes jobs from its own deque — a lock-free Chase–Lev ring
// (deque.go) — stealing when empty.
type worker struct {
	eng *engine
	id  int
	rng *rand.Rand

	// lastVictim is steal affinity: the worker a steal last succeeded
	// against is probed first next time (worker-local, no sync needed).
	lastVictim int

	cl chaseLev

	// Idle-protocol state; see park/wakeOne for the token discipline.
	parked  atomic.Bool
	parkSig chan struct{} // capacity 1; a token is a wake permit
}

// push appends j to this worker's deque and wakes at most one parked
// worker. Everything the pusher did before the push — in particular
// the closeStrand flush at the spawn/create site — happens-before any
// pop or steal that obtains j (the deque's atomic publication).
func (w *worker) push(j *job) {
	if w.cl.push(j) {
		w.eng.cDequeGrows.Add(1)
	}
	w.eng.wakeOne()
}

// trySteal attempts one steal from v, updating affinity and counters on
// success.
func (w *worker) trySteal(v *worker) *job {
	if v == w {
		return nil
	}
	j := v.cl.steal()
	if j == nil {
		return nil
	}
	w.lastVictim = v.id
	w.eng.cSteals.Add(1)
	if tw := w.eng.trace; tw != nil {
		tw.Instant(obsv.TracePidSched, uint64(w.id), "steal",
			map[string]any{"victim": v.id, "strand": j.task.cur.ID})
	}
	return j
}

// findWork pops locally, then probes the last successful victim
// (steal affinity: a victim that had surplus work recently likely
// still does, and its deque top is warm in this worker's cache), then
// the remaining workers from a random offset.
func (w *worker) findWork() *job {
	if j := w.cl.pop(); j != nil {
		return j
	}
	n := len(w.eng.workers)
	if n == 1 {
		return nil
	}
	last := w.lastVictim
	if last >= 0 {
		if j := w.trySteal(w.eng.workers[last]); j != nil {
			return j
		}
	}
	off := w.rng.Intn(n)
	for i := 0; i < n; i++ {
		v := w.eng.workers[(off+i)%n]
		if v == w || v.id == last {
			continue
		}
		if j := w.trySteal(v); j != nil {
			return j
		}
	}
	w.lastVictim = -1
	w.eng.cStealFails.Add(1)
	return nil
}

// Idle backoff thresholds: a few probe rounds with exponentially
// lengthening busy pauses (the work may be a cache-miss away), then
// cooperative yields (another goroutine may be about to push), then
// park — after which the worker consumes no cycles until woken.
const (
	idleSpinRounds  = 4
	idleYieldRounds = 16
)

// spinSink defeats dead-code elimination of the backoff pause loop.
var spinSink atomic.Uint64

func spinPause(n int) {
	var s uint64
	for i := 0; i < n; i++ {
		s += uint64(i)
	}
	spinSink.Store(s)
}

func (w *worker) loop() {
	e := w.eng
	idle := 0
	for {
		if e.aborted() {
			return
		}
		if j := w.findWork(); j != nil {
			idle = 0
			if j.take() {
				w.runJob(j)
			}
			continue
		}
		if e.pending.Load() == 0 {
			return
		}
		idle++
		switch {
		case idle <= idleSpinRounds:
			spinPause(1 << (4 + idle)) // 32, 64, 128, 256: exponential
		case idle <= idleSpinRounds+idleYieldRounds:
			runtime.Gosched()
		default:
			w.park()
			idle = 0
		}
	}
}

// park blocks the worker on its wake channel until a pusher hands it a
// token, the run terminates, or an abort lands. The no-lost-wakeup
// argument is a Dekker pattern on sequentially consistent atomics: the
// parker stores parked=true and then re-checks termination and every
// deque; a pusher stores its job (or the terminating worker its
// pending decrement) and then scans the parked flags. In any
// interleaving at least one side observes the other, so either the
// parker cancels or the pusher/terminator wakes it.
func (w *worker) park() {
	e := w.eng
	w.parked.Store(true)
	e.parkedCount.Add(1)
	if e.pending.Load() == 0 || e.aborted() || e.workAvailable() {
		w.cancelPark()
		return
	}
	e.cParks.Add(1)
	select {
	case <-w.parkSig:
	case <-e.abortCh:
		w.cancelPark()
	}
}

// cancelPark retracts a park announcement. If a waker already claimed
// this worker (the CAS fails), its token is in flight — consume it so
// the channel is empty before the next park.
func (w *worker) cancelPark() {
	if w.parked.CompareAndSwap(true, false) {
		w.eng.parkedCount.Add(-1)
		return
	}
	<-w.parkSig
}

// workAvailable scans every deque for visible work (pre-park check).
func (e *engine) workAvailable() bool {
	for _, v := range e.workers {
		if v.cl.size() > 0 {
			return true
		}
	}
	return false
}

// wakeOne wakes at most one parked worker; called after every push.
// The common case — nobody parked — is one atomic load. Token
// discipline: a token is sent only after winning the parked CAS, and
// every consumed flag leads to exactly one receive, so the buffered
// channel never blocks a waker.
func (e *engine) wakeOne() {
	if e.parkedCount.Load() == 0 {
		return
	}
	for _, w := range e.workers {
		if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
			e.parkedCount.Add(-1)
			e.cWakes.Add(1)
			w.parkSig <- struct{}{}
			return
		}
	}
}

// wakeAll wakes every parked worker. Called exactly once, by whichever
// worker retires the last job (pending hits zero): the woken workers
// observe pending==0 and exit, so the engine can never shut down with
// a goroutine still parked.
func (e *engine) wakeAll() {
	for _, w := range e.workers {
		if w.parked.CompareAndSwap(true, false) {
			e.parkedCount.Add(-1)
			e.cWakes.Add(1)
			w.parkSig <- struct{}{}
		}
	}
}

// finishJob retires one job; the worker that brings pending to zero
// performs the termination wake.
func (e *engine) finishJob() {
	if e.pending.Add(-1) == 0 {
		e.wakeAll()
	}
}

// runJob executes a claimed job on this worker, converting panics into
// an engine abort (the internal unwind sentinel excepted).
func (w *worker) runJob(j *job) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(errAbortUnwind); !ok {
				w.eng.abort(r)
			}
			w.eng.closeAfterPanic(j.task)
		}
		w.eng.finishJob()
	}()
	w.eng.runBody(j.task, w)
}

// closeAfterPanic is the best-effort close of the strand t was executing
// when its body panicked, so a deferring checker keeps its partial
// results on failure. Guarded by its own recover: the checker may be
// mid-update.
func (e *engine) closeAfterPanic(t *Task) {
	defer func() { _ = recover() }()
	e.closeStrand(t.cur)
}

// runInline executes a job synchronously on the current worker (inline
// drain at sync, or a get claiming an unstarted future). Panics
// propagate: the enclosing runJob converts them, once the strand the
// inline body was executing has had its best-effort close.
func (e *engine) runInline(j *job, w *worker) {
	defer e.finishJob()
	defer func() {
		if r := recover(); r != nil {
			e.closeAfterPanic(j.task)
			panic(r)
		}
	}()
	e.runBody(j.task, w)
	if w != nil {
		w.cl.trim()
	}
}

// runBody runs one function instance to completion: body, implicit sync,
// then sink bookkeeping (put for future tasks including the root,
// return-join for spawned children).
func (e *engine) runBody(t *Task, w *worker) {
	t.worker = w
	t.cur.lane = t.laneID()
	if t.bodyV != nil {
		t.retval = t.bodyV(t)
	} else if t.body != nil {
		t.body(t)
	}
	sink := t.implicitSync()
	// The sink strand ends here: flush deferred accesses before the
	// put/return event makes successors (getters, the parent's sync
	// strand) runnable.
	e.closeStrand(sink)

	if t.isFutureBody {
		f := t.fut
		f.value = t.retval
		f.last = sink
		if e.tracer != nil {
			e.tracer.OnPut(sink, f)
		}
		if e.check {
			// Handles the body made visible through its put: everything
			// that exists now. Written before close(done), so getters
			// observe it after the done happens-before edge.
			f.putEpoch = e.futureID.Load() - 1
		}
		close(f.done)
		return
	}

	// Spawned child: join the parent's sync region.
	if e.tracer != nil {
		e.tracer.OnReturn(sink)
	}
	b := t.parentBlock
	b.mu.Lock()
	if e.check {
		if ep := e.futureID.Load() - 1; ep > b.joinEpoch {
			b.joinEpoch = ep
		}
	}
	b.childSinks = append(b.childSinks, sink)
	b.outstanding--
	if b.outstanding == 0 && b.waitCh != nil {
		close(b.waitCh)
		b.waitCh = nil
	}
	b.mu.Unlock()
}
