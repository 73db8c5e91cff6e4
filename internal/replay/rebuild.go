package replay

import (
	"fmt"
	"sync"

	"sforder/internal/core"
	"sforder/internal/depa"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// idSlack is how far a strand or future id may run ahead of what the events
// applied so far can have introduced (three strands and one future each).
// A recording worker draws a branch's ids before its event reaches the
// file: a spawn's or create's at most three ids early, since those events
// are written at once, and a get's one strand while the get waits in its
// lane's buffer — but that get's future has its create and put in the file
// already, and their six ids of budget cover the create's three and the
// get's one. So genuine ids lead file order by at most three per recording
// worker; anything further out is corruption.
const idSlack = 1 << 16

// store holds the strand and future identities a rebuild has introduced,
// dense by id, for the barriered and the streamed path alike. It is never
// sized from a total a capture declares: an id is admitted only within
// idSlack of what the events applied so far account for, so the arrays
// grow with the data decoded and a corrupt id cannot allocate ahead of it.
type store struct {
	strands []*sched.Strand
	futs    []*sched.FutureTask
	events  int // structure events applied
}

// corrupt is what the store throws at a structure violation. Only
// applyEvent and pipeline.dispatch, which turn it back into an error
// (caught), call the throwing methods.
type corrupt string

func (st *store) need(id uint64) *sched.Strand {
	if id >= uint64(len(st.strands)) || st.strands[id] == nil {
		panic(corrupt(fmt.Sprintf("strand %d referenced before introduction", id)))
	}
	return st.strands[id]
}

func (st *store) intro(id uint64, f *sched.FutureTask) *sched.Strand {
	if id > 3*uint64(st.events)+idSlack {
		panic(corrupt(fmt.Sprintf("strand %d out of range", id)))
	}
	for uint64(len(st.strands)) <= id {
		st.strands = append(st.strands, nil)
	}
	if st.strands[id] != nil {
		panic(corrupt(fmt.Sprintf("strand %d introduced twice", id)))
	}
	st.strands[id] = &sched.Strand{ID: id, Fut: f}
	return st.strands[id]
}

func (st *store) needFut(id int) *sched.FutureTask {
	if id < 0 || id >= len(st.futs) || st.futs[id] == nil {
		panic(corrupt(fmt.Sprintf("future %d referenced before creation", id)))
	}
	return st.futs[id]
}

func (st *store) introFut(id int, parent *sched.FutureTask) *sched.FutureTask {
	if id < 0 || id > st.events+idSlack {
		panic(corrupt(fmt.Sprintf("future %d out of range", id)))
	}
	for len(st.futs) <= id {
		st.futs = append(st.futs, nil)
	}
	if st.futs[id] != nil {
		panic(corrupt(fmt.Sprintf("future %d created twice", id)))
	}
	st.futs[id] = &sched.FutureTask{ID: id, Parent: parent}
	return st.futs[id]
}

// caught turns a corrupt thrown below it into *err, naming the event the
// store was at; any other panic goes on.
func (st *store) caught(err *error) {
	switch p := recover().(type) {
	case nil:
	case corrupt:
		*err = fmt.Errorf("replay: event %d: %s", st.events, string(p))
	default:
		panic(p)
	}
}

// applyEvent validates one structure event against the store and feeds
// it to the tracer — the single event-order rebuild, run over a loaded
// capture's events by Run and inline by RunStream's loader.
func applyEvent(st *store, r sched.Tracer, ev *trace.Event) (err error) {
	defer st.caught(&err)
	switch ev.Op {
	case trace.OpRoot:
		if st.events != 0 {
			panic(corrupt("misplaced root"))
		}
		r.OnRoot(st.intro(ev.U, st.introFut(0, nil)))
	case trace.OpSpawn, trace.OpCreate:
		u := st.need(ev.U)
		childFut := u.Fut
		if ev.Op == trace.OpCreate {
			childFut = st.introFut(ev.Fut, st.needFut(ev.FutParent))
		}
		first, cont := st.intro(ev.A, childFut), st.intro(ev.B, u.Fut)
		var ph *sched.Strand
		if ev.Placeholder > 0 {
			ph = st.intro(ev.Placeholder-1, u.Fut)
		}
		if ev.Op == trace.OpCreate {
			r.OnCreate(u, first, cont, ph, childFut)
		} else {
			r.OnSpawn(u, first, cont, ph)
		}
	case trace.OpSync:
		// The sync strand is the placeholder eagerly introduced at the
		// region's first branch; the scheduler emits no sync event for
		// branch-free regions, so an unintroduced sync strand is
		// corruption, not a late introduction.
		k, s := st.need(ev.U), st.need(ev.A)
		sinks := make([]*sched.Strand, len(ev.Sinks))
		for j, id := range ev.Sinks {
			sinks[j] = st.need(id)
		}
		r.OnSync(k, s, sinks)
	case trace.OpReturn:
		r.OnReturn(st.need(ev.U))
	case trace.OpPut:
		sink, f := st.need(ev.U), st.needFut(ev.Fut)
		f.SetLast(sink)
		r.OnPut(sink, f)
	case trace.OpGet:
		u, f := st.need(ev.U), st.needFut(ev.Fut)
		if f.Last() == nil {
			panic(corrupt(fmt.Sprintf("get of future %d before its put", ev.Fut)))
		}
		r.OnGet(u, st.intro(ev.A, u.Fut), f)
	default:
		panic(corrupt(fmt.Sprintf("unexpected op %v", ev.Op)))
	}
	st.events++
	return nil
}

// rebuildParallel is the precomputed-label-table rebuild: instead of
// threading every structure event through the substrate's mutable
// placement path, it derives each strand's fork-path label directly from
// the recorded path and builds all labels in parallel. What it did — labels
// built, total label+chunk fill work, the largest single worker segment —
// goes to res (RebuildMaxSegment·workers ≈ RebuildWork certifies balance).
//
//  1. Partition (serial). trace.PathIndex extracts every strand's label
//     parent and branch role in one validating pass, laid out in
//     introduction order so contiguous index ranges are independent
//     units of work (parents precede children).
//  2. Labels (parallel). depa.BuildTable runs the serial Extend
//     recurrence as a table fill: W workers over even index segments,
//     no locks, no shared mutable state — cross-segment reads are of
//     array cells written by strictly earlier passes. The table is
//     bit-identical to what online Extend calls would have built
//     (depa.TestBuildTableMatchesExtend), so every Rel verdict agrees.
//  3. Bind (parallel). Each worker binds its segment's strands to their
//     pre-allocated node records (core.Offline.Bind — distinct indices,
//     no sharing).
//  4. Bitmaps (serial). One pass over the events in file order computes
//     the cp(G) ancestor sets and gp(v) non-SP-path sets with exactly
//     the online placement rules (inherit at branch, merge at sync and
//     get). These are genuinely order-dependent — they are the serial
//     residue of the rebuild, and a small fraction of its work (one
//     bitmap op per event vs. a label + node per strand).
//
// The resulting Reach answers PrecedesUncounted identically to the
// event-order rebuild (DESIGN.md §4, label determinism). It holds no arena
// slabs (core.Offline), so there is nothing to release.
func rebuildParallel(c *trace.Capture, res *Result) (*store, *core.Reach, error) {
	workers := res.RebuildWorkers
	idx, err := c.Index()
	if err != nil {
		return nil, nil, err
	}
	n := len(idx.Order)

	// Branch roles → label components. A get strand hangs off its
	// getting strand exactly like a spawned child (same Child component
	// the online placeGet appends).
	roleComp := [...]uint8{trace.RoleChild: depa.Child, trace.RoleGet: depa.Child, trace.RoleCont: depa.Cont, trace.RoleSync: depa.Sync}
	comp := make([]uint8, n)
	for j, role := range idx.Role {
		comp[j] = roleComp[role]
	}
	table, err := depa.BuildTable(idx.Parent, comp, depa.TableConfig{Workers: workers})
	if err != nil {
		return nil, nil, err
	}

	off := core.NewOffline(n, c.Futures)

	// Future identities (cheap, serial): objects first so parent links
	// can point anywhere, links from the validated index. The index has
	// checked both totals against the event count, so they may size.
	futs := make([]*sched.FutureTask, c.Futures)
	for fid := range futs {
		futs[fid] = &sched.FutureTask{ID: fid}
	}
	for fid, p := range idx.FutParent {
		if p >= 0 {
			futs[fid].Parent = futs[p]
		}
	}

	// Parallel bind: segment w owns introduction positions
	// [w·n/W, (w+1)·n/W) — the same even split BuildTable used. Each
	// iteration writes one distinct strands[id] cell (ids are unique by
	// index validation) and one distinct node record.
	strands := make([]*sched.Strand, c.Strands)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for j := lo; j < hi; j++ {
				id := idx.Order[j]
				s := &sched.Strand{ID: id, Fut: futs[idx.Fut[j]]}
				strands[id] = s
				off.Bind(j, s, table.Label(j))
			}
		}(lo, hi)
	}
	wg.Wait()
	off.AccountTable(table)

	// Serial bitmap pass, file order. Placeholders inherit no gp at the
	// branch (matching the online placeBranch); their gp is computed at
	// the region's sync.
	for i := range c.Events {
		ev := &c.Events[i]
		switch ev.Op {
		case trace.OpRoot:
			off.BindRootFuture(futs[0])
		case trace.OpSpawn:
			u := strands[ev.U]
			off.InheritGP(strands[ev.A], u)
			off.InheritGP(strands[ev.B], u)
		case trace.OpCreate:
			u := strands[ev.U]
			off.BindFuture(futs[ev.Fut])
			off.InheritGP(strands[ev.A], u)
			off.InheritGP(strands[ev.B], u)
		case trace.OpSync:
			sinks := make([]*sched.Strand, len(ev.Sinks))
			for j, id := range ev.Sinks {
				sinks[j] = strands[id]
			}
			off.SyncGP(strands[ev.U], strands[ev.A], sinks)
		case trace.OpPut:
			futs[ev.Fut].SetLast(strands[ev.U])
		case trace.OpGet:
			off.GetGP(strands[ev.U], strands[ev.A], futs[ev.Fut])
		}
	}

	res.RebuildLabels = uint64(table.Len())
	for _, wk := range table.SegmentWork() {
		res.RebuildWork += uint64(wk)
		res.RebuildMaxSegment = max(res.RebuildMaxSegment, uint64(wk))
	}
	return &store{strands: strands, futs: futs, events: len(c.Events)}, off.Reach(), nil
}
