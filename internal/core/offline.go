package core

import (
	"sforder/internal/depa"
	"sforder/internal/sched"
)

// Offline is the rebuild-only entry point into the reachability
// component: a Reach whose substrate positions are bound from a
// precomputed fork-path label table (depa.BuildTable) instead of being
// placed one tracer event at a time. It exists for offline replay,
// where the whole strand forest is known up front and label
// construction parallelizes — only the label substrate supports it
// (a fork-path label is a pure function of the strand's recorded
// path; an order-maintenance list is one mutable structure that must
// be built in event order).
//
// Usage: allocate with NewOffline, account the table once with
// AccountTable, and Bind each strand to its table label (safe
// concurrently for distinct indices — each Bind touches only its own
// pre-allocated node record) before the serial gp/cp passes
// (BindRootFuture, BindFuture, InheritGP, SyncGP, GetGP), run in capture
// file order, touch it. The
// resulting Reach answers Precedes/PrecedesUncounted/LeftOf exactly as
// if the events had been traced online.
type Offline struct {
	r     *Reach
	sub   *depaSub
	nodes []depaNode
	metas []futMeta
}

// NewOffline returns an Offline rebuild on SubstrateDePa sized for the
// given strand and future counts.
func NewOffline(strands, futures int) *Offline {
	// Node and meta records come from the two dense slices below and
	// every set builder is handed a nil arena, so the lane arenas sit
	// idle.
	sub := &depaSub{}
	return &Offline{
		r:     &Reach{sub: sub},
		sub:   sub,
		nodes: make([]depaNode, strands),
		metas: make([]futMeta, futures),
	}
}

// Reach returns the underlying reachability component. Valid for
// queries once every strand is bound and the gp/cp passes have run.
func (o *Offline) Reach() *Reach { return o.r }

// Bind assigns strand s the i-th node record, positioned by its
// precomputed cord label. Safe for concurrent use on distinct i; the
// label must be immutable (a table entry).
func (o *Offline) Bind(i int, s *sched.Strand, l *depa.Label) {
	n := &o.nodes[i]
	n.label = l
	s.Det = &n.node
}

// AccountTable records a bulk-built label table on the substrate's
// gauges — labels, frozen chunks, max depth, label memory — and on the
// strand count, keeping depa.* and reach.* consistent with what an
// online run over the same forest would have reported.
func (o *Offline) AccountTable(t *depa.Table) {
	o.r.strands.Add(uint64(t.Len()))
	o.sub.account(int64(t.Len()), int64(t.Chunks()), int64(t.MemBytes()), int64(t.MaxDepth()))
}

// BindRootFuture binds the implicit root future (no ancestors).
func (o *Offline) BindRootFuture(f *sched.FutureTask) {
	fm := &o.metas[f.ID]
	fm.cp = nil
	f.Det = fm
}

// BindFuture binds a created future: cp(G) = cp(parent) ∪ {parent}.
// The parent must already be bound (creation order).
func (o *Offline) BindFuture(f *sched.FutureTask) {
	fm := &o.metas[f.ID]
	fm.cp = o.r.childCP(nil, f.Parent)
	f.Det = fm
}

// InheritGP shares src's gp with dst — the branch-point rule (a
// spawn/create child or continuation starts with its forker's gp).
func (o *Offline) InheritGP(dst, src *sched.Strand) {
	nodeOf(dst).gp = nodeOf(src).gp
}

// SyncGP merges the region's gp into the (pre-bound) sync strand s:
// gp(s) = gp(k) ∪ gp(sinks...), with the §3.4 subsumption sharing.
func (o *Offline) SyncGP(k, s *sched.Strand, childSinks []*sched.Strand) {
	o.r.placeSync(nil, k, s, childSinks)
}

// GetGP computes the get strand's gp: gp(g) = gp(u) ∪ gp(last(F)) ∪
// {F}. Unlike the online placeGet it performs no placement — g's label
// came from the table — and counts no extra strand.
func (o *Offline) GetGP(u, g *sched.Strand, f *sched.FutureTask) {
	nodeOf(g).gp = o.r.getGP(nil, nodeOf(u).gp, nodeOf(f.Last()).gp, f)
}
