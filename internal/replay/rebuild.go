package replay

import (
	"sforder/internal/core"
	"sforder/internal/depa"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// tableTracer is the precomputed-label-table rebuild's tracer: instead of
// threading every structure event through the substrate's mutable
// placement path, it binds each strand the rebuild introduces to the label
// built for it from the recorded path, and applies the online gp/cp rules.
//
//  1. Partition (serial). trace.PathIndex extracts every strand's label
//     parent and branch role in one pass, laid out in introduction order
//     so contiguous index ranges are independent units of work (parents
//     precede children).
//  2. Labels (parallel). depa.BuildTable runs the serial Extend
//     recurrence as a table fill: W workers over even index segments, no
//     locks, no shared mutable state — cross-segment reads are of array
//     cells written by strictly earlier passes. The table is
//     bit-identical to what online Extend calls would have built
//     (depa.TestBuildTableMatchesExtend), so every Rel verdict agrees.
//  3. Bind and bitmaps (serial, the trace.Rebuild pass). Each strand
//     takes its table label at introduction (core.Offline.Bind), and the
//     cp(G) ancestor sets and gp(v) non-SP-path sets follow exactly the
//     online placement rules (inherit at branch, merge at sync and get).
//     These are order-dependent — the serial residue of the rebuild, one
//     bitmap op per event against a label per strand.
//
// The resulting Reach answers PrecedesUncounted identically to the
// event-order rebuild (DESIGN.md §4, label determinism). It holds no arena
// slabs (core.Offline), so there is nothing to release.
type tableTracer struct {
	off   *core.Offline
	table *depa.Table
	pos   []int32 // strand id → introduction position, the table index
}

// newTableTracer indexes c and builds its label table with
// res.RebuildWorkers workers, recording the labels, the total label+chunk
// fill work and the largest single worker segment in res
// (RebuildMaxSegment·workers ≈ RebuildWork certifies balance).
func newTableTracer(c *trace.Capture, res *Result) (*tableTracer, error) {
	idx, err := c.Index()
	if err != nil {
		return nil, err
	}
	// Branch roles → label components. A get strand hangs off its
	// getting strand exactly like a spawned child (same Child component
	// the online placeGet appends).
	roleComp := [...]uint8{trace.RoleChild: depa.Child, trace.RoleGet: depa.Child, trace.RoleCont: depa.Cont, trace.RoleSync: depa.Sync}
	comp := make([]uint8, len(idx.Order))
	for j, role := range idx.Role {
		comp[j] = roleComp[role]
	}
	table, err := depa.BuildTable(idx.Parent, comp, depa.TableConfig{Workers: res.RebuildWorkers})
	if err != nil {
		return nil, err
	}
	off := core.NewOffline(len(idx.Order), c.Futures)
	off.AccountTable(table)
	res.RebuildLabels = uint64(table.Len())
	for _, wk := range table.SegmentWork() {
		res.RebuildWork += uint64(wk)
		res.RebuildMaxSegment = max(res.RebuildMaxSegment, uint64(wk))
	}
	return &tableTracer{off: off, table: table, pos: idx.Pos}, nil
}

// bind gives each non-nil strand its table label. The index accepted the
// events the rebuild applies, so every strand introduced has a position.
func (t *tableTracer) bind(ss ...*sched.Strand) {
	for _, s := range ss {
		if s != nil {
			j := int(t.pos[s.ID])
			t.off.Bind(j, s, t.table.Label(j))
		}
	}
}

// OnRoot implements sched.Tracer.
func (t *tableTracer) OnRoot(root *sched.Strand) {
	t.bind(root)
	t.off.BindRootFuture(root.Fut)
}

// OnSpawn implements sched.Tracer. Placeholders inherit no gp at the
// branch (as the online placeBranch); theirs is computed at the sync.
func (t *tableTracer) OnSpawn(u, child, cont, placeholder *sched.Strand) {
	t.bind(child, cont, placeholder)
	t.off.InheritGP(child, u)
	t.off.InheritGP(cont, u)
}

// OnCreate implements sched.Tracer.
func (t *tableTracer) OnCreate(u, first, cont, placeholder *sched.Strand, f *sched.FutureTask) {
	t.off.BindFuture(f)
	t.OnSpawn(u, first, cont, placeholder)
}

// OnSync implements sched.Tracer.
func (t *tableTracer) OnSync(k, s *sched.Strand, childSinks []*sched.Strand) {
	t.off.SyncGP(k, s, childSinks)
}

// OnReturn and OnPut implement sched.Tracer: they place nothing.
func (t *tableTracer) OnReturn(*sched.Strand)                 {}
func (t *tableTracer) OnPut(*sched.Strand, *sched.FutureTask) {}

// OnGet implements sched.Tracer.
func (t *tableTracer) OnGet(u, g *sched.Strand, f *sched.FutureTask) {
	t.bind(g)
	t.off.GetGP(u, g, f)
}
