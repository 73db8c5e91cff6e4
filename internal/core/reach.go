// Package core implements SF-Order, the paper's contribution: a parallel
// reachability component for race detecting programs with structured
// futures (§3), answering Precedes queries in amortized constant time.
//
// SF-Order maintains three structures (§3.2):
//
//  1. Two order-maintenance lists — English and Hebrew — holding every
//     strand of the pseudo-SP-dag PSP(D): the series-parallel
//     approximation of the SF-dag obtained by converting create edges to
//     spawn edges, dropping get edges, and joining every created future
//     at a sync of its creating future. A strand u reaches v in PSP(D)
//     (written u ↠ v) iff u precedes v in both lists.
//  2. cp(G): per future task G, the set of G's ancestor future IDs. It
//     depends only on the creating future, so every child of F shares
//     one set.
//  3. gp(v): per strand v, the set of future IDs F whose last strand
//     reaches v through a non-SP path. gp sets are shared between
//     strands copy-on-write and merged only when both sides own members
//     the other lacks (§3.4), which happens O(k) times for k futures.
//
// A query Precedes(u ∈ F, v ∈ G) then follows Algorithm 1:
//
//	F == G:               u ↠ v
//	F ∈ cp(G) and u ↠ v:  true
//	F ∈ gp(v):            true
//	otherwise:            false
//
// The paper (§4) keeps cp and gp as arrays of 64-bit words indexed by
// future ID rather than hash tables — the asymptotic win over F-Order's
// per-node hash tables and the memory win of Figure 5 — and pays k bits
// per set, the k² of Theorem 3.14. Here both are bitset.RunSet values:
// one run of consecutive IDs plus bitmap words only for the members
// outside it. Membership is still O(1), and the sets structured futures
// actually build — the ancestors of a chain, everything a pipeline stage
// has joined — are single runs, so a get or a create allocates a 24-byte
// header and copies no words; the bitmap survives as the residue window
// of a set that is not run-shaped, never larger than the paper's.
// childCP and getGP below are the only places a set is constructed.
package core

import (
	"sync"
	"sync/atomic"

	"sforder/internal/bitset"
	"sforder/internal/obsv"
	"sforder/internal/sched"
)

// node is the substrate-independent header of the SF-Order per-strand
// record; it is all Reach reads. Each substrate allocates the whole
// record, its position inline after the header (omNode: the English and
// Hebrew om.Items; depaNode: the cord fork-path label), and converts a
// *node back to it — the header is the record's first field, so both
// share an address. One record a strand, one slab allocation, and
// MemBytes counts it once by its size (a size test pins all three).
type node struct {
	gp *bitset.RunSet // future IDs F with last(F) ⇝NSP here (shared)
}

// futMeta is the SF-Order per-future state.
type futMeta struct {
	cp *bitset.RunSet // ancestor future IDs (immutable once built)
	// kids is cp ∪ {this future}: the cp of every future this one
	// creates, built by the first create and shared by the rest. Strands
	// of one future create in parallel, so it is published by CAS.
	kids atomic.Pointer[bitset.RunSet]
}

// Config selects the reachability substrate. The zero value is what
// ships: DePa fork-path cords.
type Config struct {
	// Reach selects the reachability substrate: DePa fork-path cords
	// (default) or the paper's OM list pair (ABL10/ABL11).
	Reach Substrate
}

// Reach is the SF-Order reachability component. It implements
// sched.Tracer (and sched.LaneTracer) to maintain its structures online
// and serves Precedes queries from any worker concurrently.
type Reach struct {
	sub Reachability

	queries  atomic.Uint64 // Precedes calls (Figure 3 "queries")
	gpMerges atomic.Uint64 // gp allocations from divergent merges
	strands  atomic.Uint64

	// lanes are the per-worker arenas, sized by SetLanes before the
	// first event; a lane is only ever used by its worker (the
	// sched.LaneTracer exclusivity contract), so lane state is unlocked.
	// shared is the fallback arena for events arriving through the plain
	// Tracer methods (Reach wrapped in a MultiTracer, direct test
	// drivers); it is serialized by sharedMu, which also orders
	// lanes-slice resizing against the stats gauges.
	sharedMu sync.Mutex
	lanes    []*laneAlloc
	shared   laneAlloc

	// cpSets counts the shared child-cp sets published (gpMerges counts
	// every gp set built) and setMem the payload bytes gp and cp sets own
	// — their residue windows (each set recorded once; sets are immutable
	// afterwards).
	cpSets atomic.Int64
	setMem atomic.Int64
}

// New returns an empty SF-Order reachability component configured by
// cfg, ready to be passed as the Tracer of a sched.Run. A cfg.Reach that
// does not Validate is a caller bug and panics.
func New(cfg Config) *Reach {
	switch cfg.Reach {
	case SubstrateOM:
		return &Reach{sub: newOMPair()}
	case SubstrateDePa:
		return &Reach{sub: &depaSub{}}
	}
	panic(cfg.Reach.Validate())
}

// SetLanes implements sched.LaneTracer: called by the engine before the
// first event with the worker count, it sizes the per-worker arenas.
func (r *Reach) SetLanes(n int) {
	r.sharedMu.Lock()
	defer r.sharedMu.Unlock()
	for len(r.lanes) < n {
		r.lanes = append(r.lanes, new(laneAlloc))
	}
}

// lockShared enters the fallback allocation critical section; the caller
// leaves it by unlocking sharedMu.
func (r *Reach) lockShared() *laneAlloc {
	r.sharedMu.Lock()
	return &r.shared
}

// Release returns every arena slab to the shared pools for reuse by a
// later run. The Reach must not be used afterwards: node records, OM
// items, and bitmaps alias recycled memory. The harness calls this
// after a measurement's stats snapshot; callers that keep strand or
// future pointers (race records with live dag references) must not.
func (r *Reach) Release() {
	r.sharedMu.Lock()
	defer r.sharedMu.Unlock()
	for _, a := range r.lanes {
		a.release()
	}
	r.shared.release()
}

// ArenaBytes reports the slab bytes currently held across all lanes and
// the shared fallback arena.
func (r *Reach) ArenaBytes() int64 {
	r.sharedMu.Lock()
	defer r.sharedMu.Unlock()
	var total int64
	for _, a := range r.lanes {
		total += a.bytes()
	}
	return total + r.shared.bytes()
}

func nodeOf(s *sched.Strand) *node { return s.Det.(*node) }
func metaOf(f *sched.FutureTask) *futMeta {
	return f.Det.(*futMeta)
}

// trackSet records the payload of a freshly built set; a single run
// owns none and touches no counter.
func (r *Reach) trackSet(s *bitset.RunSet) *bitset.RunSet {
	if n := s.MemBytes(); n != 0 {
		r.setMem.Add(int64(n))
	}
	return s
}

// newGP counts and records a freshly built gp set: one per get and one
// per divergent merge.
func (r *Reach) newGP(s *bitset.RunSet) *bitset.RunSet {
	r.gpMerges.Add(1)
	return r.trackSet(s)
}

// setCount is how many gp and cp sets have been built.
func (r *Reach) setCount() int64 { return int64(r.gpMerges.Load()) + r.cpSets.Load() }

// childCP returns cp(G) = cp(F) ∪ {F} for a future G created by F. The
// set depends on F alone, so the first create builds it and publishes it
// on F's record; a racing create from a parallel strand of F adopts the
// winner's pointer and its own copy is dropped uncounted.
func (r *Reach) childCP(sets *bitset.Arena, f *sched.FutureTask) *bitset.RunSet {
	fm := metaOf(f)
	if cp := fm.kids.Load(); cp != nil {
		return cp
	}
	cp := bitset.UnionAddIn(sets, fm.cp, nil, f.ID)
	if fm.kids.CompareAndSwap(nil, cp) {
		r.cpSets.Add(1)
		return r.trackSet(cp)
	}
	return fm.kids.Load()
}

// getGP returns gp(g) = gp(u) ∪ gp(last(F)) ∪ {F} for the strand g that
// follows u's get of future F, given the two operand sets.
func (r *Reach) getGP(sets *bitset.Arena, gpU, gpLast *bitset.RunSet, f *sched.FutureTask) *bitset.RunSet {
	return r.newGP(bitset.UnionAddIn(sets, gpU, gpLast, f.ID))
}

// OnRoot implements sched.Tracer. The root is a single event before any
// parallelism, so it allocates from the shared arena.
func (r *Reach) OnRoot(root *sched.Strand) {
	r.strands.Add(1)
	a := r.lockShared()
	rn := r.sub.newNode(a)
	r.sub.placeRoot(a, rn)
	root.Det = rn
	root.Fut.Det = a.newMeta() // cp stays nil: the root has no ancestors
	r.sharedMu.Unlock()
}

// placeBranch places the strands of a spawn/create event in both
// PSP(D) orders: English order u, child, cont[, placeholder]; Hebrew
// order u, cont, child[, placeholder]. The eager placeholder placement
// is what lets every later strand of the child's subdag land inside
// the correct interval (§3.4 / WSP-Order). How the positions are
// realized — OM batch inserts or fork-path label extensions — is the
// substrate's business.
func (r *Reach) placeBranch(a *laneAlloc, u, child, cont, placeholder *sched.Strand) {
	un := nodeOf(u)
	n := 2
	if placeholder != nil {
		n = 3
	}
	r.strands.Add(uint64(n))
	cn := r.sub.newNode(a)
	kn := r.sub.newNode(a)
	var pn *node
	if placeholder != nil {
		pn = r.sub.newNode(a)
	}
	r.sub.placeBranch(a, un, cn, kn, pn)
	cn.gp, kn.gp = un.gp, un.gp
	child.Det = cn
	cont.Det = kn
	if placeholder != nil {
		placeholder.Det = pn
	}
}

// placeCreate is placeBranch plus the future bookkeeping: create is a
// spawn in PSP(D), and cp(G) = cp(F) ∪ {F} for the new future.
func (r *Reach) placeCreate(a *laneAlloc, u, first, cont, placeholder *sched.Strand, f *sched.FutureTask) {
	r.placeBranch(a, u, first, cont, placeholder)
	fm := a.newMeta()
	fm.cp = r.childCP(&a.sets, f.Parent)
	f.Det = fm
}

// placeSync gives the sync strand s (pre-placed in the OM lists) the
// merged gp of its real-dag predecessors — the continuation k and the
// joined spawned children's sinks.
func (r *Reach) placeSync(a *laneAlloc, k, s *sched.Strand, childSinks []*sched.Strand) {
	sets := &a.sets
	sn := nodeOf(s)
	acc := nodeOf(k).gp
	for _, c := range childSinks {
		acc = r.mergeGP(sets, acc, nodeOf(c).gp)
	}
	sn.gp = acc
}

// placeGet places the get strand g as a plain serial successor of u in
// PSP(D) (get edges are dropped) with gp(g) = gp(u) ∪ gp(last(F)) ∪ {F}.
func (r *Reach) placeGet(a *laneAlloc, u, g *sched.Strand, f *sched.FutureTask) {
	un := nodeOf(u)
	r.strands.Add(1)
	gn := r.sub.newNode(a)
	r.sub.placeSerial(a, un, gn)
	gn.gp = r.getGP(&a.sets, un.gp, nodeOf(f.Last()).gp, f)
	g.Det = gn
}

// OnSpawn implements sched.Tracer (the non-lane fallback path).
func (r *Reach) OnSpawn(u, child, cont, placeholder *sched.Strand) {
	a := r.lockShared()
	r.placeBranch(a, u, child, cont, placeholder)
	r.sharedMu.Unlock()
}

// OnCreate implements sched.Tracer (the non-lane fallback path).
func (r *Reach) OnCreate(u, first, cont, placeholder *sched.Strand, f *sched.FutureTask) {
	a := r.lockShared()
	r.placeCreate(a, u, first, cont, placeholder, f)
	r.sharedMu.Unlock()
}

// OnSync implements sched.Tracer (the non-lane fallback path).
func (r *Reach) OnSync(k, s *sched.Strand, childSinks []*sched.Strand) {
	a := r.lockShared()
	r.placeSync(a, k, s, childSinks)
	r.sharedMu.Unlock()
}

// OnGet implements sched.Tracer (the non-lane fallback path).
func (r *Reach) OnGet(u, g *sched.Strand, f *sched.FutureTask) {
	a := r.lockShared()
	r.placeGet(a, u, g, f)
	r.sharedMu.Unlock()
}

// OnSpawnLane implements sched.LaneTracer: as OnSpawn, allocating from
// the worker's own arena without locking.
func (r *Reach) OnSpawnLane(lane int, u, child, cont, placeholder *sched.Strand) {
	r.placeBranch(r.lanes[lane], u, child, cont, placeholder)
}

// OnCreateLane implements sched.LaneTracer.
func (r *Reach) OnCreateLane(lane int, u, first, cont, placeholder *sched.Strand, f *sched.FutureTask) {
	r.placeCreate(r.lanes[lane], u, first, cont, placeholder, f)
}

// OnSyncLane implements sched.LaneTracer.
func (r *Reach) OnSyncLane(lane int, k, s *sched.Strand, childSinks []*sched.Strand) {
	r.placeSync(r.lanes[lane], k, s, childSinks)
}

// OnGetLane implements sched.LaneTracer.
func (r *Reach) OnGetLane(lane int, u, g *sched.Strand, f *sched.FutureTask) {
	r.placeGet(r.lanes[lane], u, g, f)
}

func (r *Reach) mergeGP(sets *bitset.Arena, a, b *bitset.RunSet) *bitset.RunSet {
	m, allocated := bitset.MergeSharedIn(sets, a, b)
	if allocated {
		r.newGP(m)
	}
	return m
}

// OnReturn implements sched.Tracer (no SF-Order work: the join happens
// at OnSync).
func (r *Reach) OnReturn(sink *sched.Strand) {}

// OnPut implements sched.Tracer (no SF-Order work: last(F) is recorded
// by the engine and consulted at OnGet).
func (r *Reach) OnPut(sink *sched.Strand, f *sched.FutureTask) {}

// psp reports u ↠ v: u reaches v in the pseudo-SP-dag, i.e. u precedes v
// in both the English and the Hebrew order.
func (r *Reach) psp(a, b *node) bool {
	return r.sub.psp(a, b)
}

// Precedes reports whether strand u logically precedes strand v in the
// SF-dag (Algorithm 1). It must only be asked with u already executed
// (recorded in an access history) and v currently executing, the
// invariant every on-the-fly detector maintains. u == v returns true:
// accesses of one strand are serially ordered.
func (r *Reach) Precedes(u, v *sched.Strand) bool {
	r.queries.Add(1)
	return r.precedes(u, v)
}

// PrecedesUncounted is Precedes without the shared query counter, one
// contended atomic: offline replay's independent shards use this form so
// they write no shared cache line (each counts its queries locally and the
// replay engine sums them). Queries are few — about 0.005 per access since
// a page's slots share states — so this is about sharing, not volume.
func (r *Reach) PrecedesUncounted(u, v *sched.Strand) bool {
	return r.precedes(u, v)
}

func (r *Reach) precedes(u, v *sched.Strand) bool {
	if u == v {
		return true
	}
	un, vn := nodeOf(u), nodeOf(v)
	if u.Fut == v.Fut {
		// Case 1: same future — an SP path must exist (Lemma 3.3), and
		// PSP(D) captures it exactly (Lemma 3.7).
		return r.psp(un, vn)
	}
	// Case 2: u's future is a strict ancestor of v's — PSP(D) answers
	// exactly (Lemmas 3.8, 3.9).
	if metaOf(v.Fut).cp.Contains(u.Fut.ID) && r.psp(un, vn) {
		return true
	}
	// Case 3: otherwise u ≺ v iff last(F) ⇝ v (Lemma 3.4), which is
	// precisely gp(v) membership.
	return vn.gp.Contains(u.Fut.ID)
}

// LeftOf reports whether a is to the left of b — earlier in the English
// order — used by the access history to maintain leftmost/rightmost
// readers within one future (§3.5).
func (r *Reach) LeftOf(a, b *sched.Strand) bool {
	return r.sub.leftOf(nodeOf(a), nodeOf(b))
}

// Queries returns the number of Precedes calls served.
func (r *Reach) Queries() uint64 { return r.queries.Load() }

// MemBytes estimates the memory footprint of the reachability component:
// the substrate's own structures (OM list buckets or fork-path labels),
// one substrate record per strand (its position inline), and the payload
// of all gp/cp sets (Figure 5). The 24-byte set headers are left out, as
// the flat bitmap's slice headers always were.
func (r *Reach) MemBytes() int {
	return r.sub.memBytes() +
		int(r.strands.Load())*r.sub.nodeSize() + int(r.setMem.Load())
}

// RegisterStats publishes the SF-Order counters (reach.*), the
// substrate's own counters (om.english.*/om.hebrew.*/om.* aggregates
// for the OM pair, depa.* for fork-path labels — only the active
// substrate's gauges exist), and core.arena_bytes on reg. Every gauge
// reads atomics, so scraping never contends with a hot run.
func (r *Reach) RegisterStats(reg *obsv.Registry) {
	reg.RegisterFunc("reach.queries", func() int64 { return int64(r.queries.Load()) })
	reg.RegisterFunc("reach.gp_merges", func() int64 { return int64(r.gpMerges.Load()) })
	reg.RegisterFunc("reach.strands", func() int64 { return int64(r.strands.Load()) })
	reg.RegisterFunc("reach.sets", r.setCount)
	reg.RegisterFunc("reach.set_mem_bytes", func() int64 { return r.setMem.Load() })
	// A set's only payload is its residue window, so this is the same
	// count under the name that answers "is my program run-shaped?": 0
	// means every gp and cp set is a single interval of future IDs.
	reg.RegisterFunc("reach.set_residue_bytes", func() int64 { return r.setMem.Load() })
	reg.RegisterFunc("reach.mem_bytes", func() int64 { return int64(r.MemBytes()) })
	r.sub.registerStats(reg)
	reg.RegisterFunc("core.arena_bytes", r.ArenaBytes)
}

var (
	_ sched.Tracer     = (*Reach)(nil)
	_ sched.LaneTracer = (*Reach)(nil)
)
