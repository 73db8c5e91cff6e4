// Package forder implements F-Order, the state-of-the-art parallel race
// detector for programs with general (unrestricted) futures (Xu, Singer,
// Lee, PPoPP'20) — the baseline the paper compares SF-Order against.
//
// Because general futures admit arbitrary inter-task dependences, no
// single pseudo-SP-dag approximates the whole computation. F-Order
// instead keeps:
//
//   - per future task, a pair of order-maintenance lists maintaining the
//     series-parallel relations of that task's own SP sub-dag (the
//     WSP-Order strategy applied task-locally); and
//   - per strand v, a hash table mapping future-task IDs to the set of
//     maximal "future operation" strands of that task (create strands and
//     put strands) that reach v through at least one non-SP edge.
//
// A cross-task query u∈F ≺ v∈G then asks: does u SP-precede, within F,
// any recorded operation strand of F in v's table? Intra-task queries use
// F's own OM lists directly.
//
// The tables are shared between strands copy-on-write and merged at join
// strands, like SF-Order's gp — but they are genuine hash tables holding
// per-task operation antichains rather than one bit per future, which is
// exactly the space and time gap Figures 4 and 5 of the paper measure.
//
// The access history must retain all readers between consecutive writes
// (up to r per location): with general futures the leftmost/rightmost
// compression of §3.5 is unsound, so F-Order is always paired with
// detect.ReadersAll.
package forder

import (
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"sforder/internal/obsv"
	"sforder/internal/om"
	"sforder/internal/sched"
)

// opset maps a future-task ID to the positions (indices into that task's
// operation list) of operation strands reaching the owner through non-SP
// paths. Position lists are sorted and deduplicated. opsets are immutable
// once published; merging allocates.
type opset map[int][]int32

// node is the F-Order per-strand state.
type node struct {
	eng, heb om.Item // position in the owning task's OM lists
	ops      opset   // shared copy-on-write
}

// futMeta is the F-Order per-future-task state.
type futMeta struct {
	engL, hebL *om.List

	mu  sync.Mutex
	ops []*sched.Strand // operation strands (creates, put) in record order
}

func (f *futMeta) appendOp(s *sched.Strand) int32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = append(f.ops, s)
	return int32(len(f.ops) - 1)
}

func (f *futMeta) op(i int32) *sched.Strand {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops[i]
}

// Reach is the F-Order reachability component; it implements
// sched.Tracer and detect.Reachability.
type Reach struct {
	queries atomic.Uint64
	merges  atomic.Uint64
	strands atomic.Uint64
	tblMem  atomic.Int64
	omLists struct {
		sync.Mutex
		all []*om.List
	}
}

// NewReach returns an empty F-Order reachability component.
func NewReach() *Reach { return &Reach{} }

func nodeOf(s *sched.Strand) *node        { return s.Det.(*node) }
func metaOf(f *sched.FutureTask) *futMeta { return f.Det.(*futMeta) }

func (r *Reach) newTaskMeta(f *sched.FutureTask) *futMeta {
	m := &futMeta{engL: om.NewList(), hebL: om.NewList()}
	f.Det = m
	r.omLists.Lock()
	r.omLists.all = append(r.omLists.all, m.engL, m.hebL)
	r.omLists.Unlock()
	return m
}

// OnRoot implements sched.Tracer.
func (r *Reach) OnRoot(root *sched.Strand) {
	m := r.newTaskMeta(root.Fut)
	r.strands.Add(1)
	root.Det = m.firstNode()
}

// firstNode returns a node placed first in m's (empty) lists.
func (m *futMeta) firstNode() *node {
	n := &node{}
	m.engL.InsertFirst(&n.eng)
	m.hebL.InsertFirst(&n.heb)
	return n
}

// placeBranch mirrors the WSP-Order placement inside one task's lists.
// first may be nil (create events place only the continuation and the
// placeholder in the creating task's lists).
func (r *Reach) placeBranch(m *futMeta, u, child, cont, placeholder *sched.Strand) {
	un := nodeOf(u)
	kn := &node{ops: un.ops}
	var eng, heb []*om.Item
	if child != nil {
		// English: child before continuation; Hebrew: after.
		cn := &node{ops: un.ops}
		eng, heb = []*om.Item{&cn.eng, &kn.eng}, []*om.Item{&kn.heb, &cn.heb}
		child.Det = cn
	} else {
		eng, heb = []*om.Item{&kn.eng}, []*om.Item{&kn.heb}
	}
	if placeholder != nil {
		pn := &node{}
		eng, heb = append(eng, &pn.eng), append(heb, &pn.heb)
		placeholder.Det = pn
	}
	r.strands.Add(uint64(len(eng)))
	m.engL.InsertAfterN(&un.eng, eng)
	m.hebL.InsertAfterN(&un.heb, heb)
	cont.Det = kn
}

// OnSpawn implements sched.Tracer.
func (r *Reach) OnSpawn(u, child, cont, placeholder *sched.Strand) {
	r.placeBranch(metaOf(u.Fut), u, child, cont, placeholder)
}

// OnCreate implements sched.Tracer: the continuation stays in the
// creating task's lists; the new task gets fresh lists seeded with its
// first strand; and the first strand's table gains the create operation.
func (r *Reach) OnCreate(u, first, cont, placeholder *sched.Strand, f *sched.FutureTask) {
	creator := metaOf(u.Fut)
	r.placeBranch(creator, u, nil, cont, placeholder)

	m := r.newTaskMeta(f)
	r.strands.Add(1)
	fn := m.firstNode()
	pos := creator.appendOp(u)
	fn.ops = r.extend(nodeOf(u).ops, u.Fut.ID, pos, creator)
	first.Det = fn
}

// OnSync implements sched.Tracer.
func (r *Reach) OnSync(k, s *sched.Strand, childSinks []*sched.Strand) {
	sn := nodeOf(s)
	acc := nodeOf(k).ops
	for _, c := range childSinks {
		acc = r.merge(acc, nodeOf(c).ops)
	}
	sn.ops = acc
}

// OnReturn implements sched.Tracer (the join happens at OnSync).
func (r *Reach) OnReturn(sink *sched.Strand) {}

// OnPut implements sched.Tracer: the put strand becomes an operation of
// its task (its get edge is the task's only non-SP out-edge).
func (r *Reach) OnPut(sink *sched.Strand, f *sched.FutureTask) {}

// OnGet implements sched.Tracer: the get strand continues u within u's
// task and absorbs the gotten task's table plus its put operation (which
// dominates every operation of that task).
func (r *Reach) OnGet(u, g *sched.Strand, f *sched.FutureTask) {
	m := metaOf(u.Fut)
	un := nodeOf(u)
	r.strands.Add(1)
	gn := &node{}
	m.engL.InsertAfterN(&un.eng, []*om.Item{&gn.eng})
	m.hebL.InsertAfterN(&un.heb, []*om.Item{&gn.heb})
	last := f.Last()
	gotten := metaOf(f)
	pos := gotten.appendOp(last)
	withPut := r.extend(nodeOf(last).ops, f.ID, pos, gotten)
	gn.ops = r.merge(un.ops, withPut)
	g.Det = gn
}

// extend returns ops ∪ {(fut, pos)} as a fresh table, pruning positions
// of fut dominated by the new operation (entries that SP-precede it).
func (r *Reach) extend(ops opset, fut int, pos int32, m *futMeta) opset {
	out := make(opset, len(ops)+1)
	for k, v := range ops {
		out[k] = v
	}
	opStrand := m.op(pos)
	var kept []int32
	for _, p := range out[fut] {
		if !r.spPrecedesOp(m, m.op(p), opStrand) {
			kept = append(kept, p)
		}
	}
	kept = append(kept, pos)
	sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })
	out[fut] = kept
	r.noteAlloc(out)
	return out
}

// merge unions two tables copy-on-write: when one side subsumes the
// other (same or superset position sets), the subsuming pointer is
// shared; otherwise a fresh table is allocated.
func (r *Reach) merge(a, b opset) opset {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case subsumes(a, b):
		return a
	case subsumes(b, a):
		return b
	}
	out := make(opset, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = unionSorted(out[k], v)
	}
	r.noteAlloc(out)
	return out
}

func (r *Reach) noteAlloc(t opset) {
	r.merges.Add(1)
	bytes := 48
	for _, v := range t {
		bytes += 16 + 24 + 4*len(v)
	}
	r.tblMem.Add(int64(bytes))
}

func subsumes(a, b opset) bool {
	for k, bv := range b {
		av, ok := a[k]
		if !ok {
			return false
		}
		i := 0
		for _, p := range bv {
			for i < len(av) && av[i] < p {
				i++
			}
			if i >= len(av) || av[i] != p {
				return false
			}
		}
	}
	return true
}

func unionSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// spPrecedesOp reports u ⪯SP x within one task.
func (r *Reach) spPrecedesOp(m *futMeta, u, x *sched.Strand) bool {
	if u == x {
		return true
	}
	un, xn := nodeOf(u), nodeOf(x)
	return m.engL.Precedes(&un.eng, &xn.eng) && m.hebL.Precedes(&un.heb, &xn.heb)
}

// Precedes implements detect.Reachability for general futures.
func (r *Reach) Precedes(u, v *sched.Strand) bool {
	r.queries.Add(1)
	if u == v {
		return true
	}
	if u.Fut == v.Fut {
		m := metaOf(u.Fut)
		un, vn := nodeOf(u), nodeOf(v)
		if m.engL.Precedes(&un.eng, &vn.eng) && m.hebL.Precedes(&un.heb, &vn.heb) {
			return true
		}
		// General futures admit same-task paths that detour through
		// other tasks (no SP path); fall through to the table check.
		// (With structured futures this never fires — Lemma 3.3.)
	}
	positions := nodeOf(v).ops[u.Fut.ID]
	if len(positions) == 0 {
		return false
	}
	m := metaOf(u.Fut)
	// Scan from the highest recorded operation down: with serially
	// ordered operations (the common case) the first test decides.
	for i := len(positions) - 1; i >= 0; i-- {
		if r.spPrecedesOp(m, u, m.op(positions[i])) {
			return true
		}
	}
	return false
}

// Queries returns the number of Precedes calls served.
func (r *Reach) Queries() uint64 { return r.queries.Load() }

// nodeSize is the real per-strand record size, derived so Figure 5's
// F-Order column stays honest as the struct evolves.
var nodeSize = int(unsafe.Sizeof(node{}))

// lists returns a snapshot of every per-task OM list.
func (r *Reach) lists() []*om.List {
	r.omLists.Lock()
	defer r.omLists.Unlock()
	return append([]*om.List(nil), r.omLists.all...)
}

// MemBytes estimates the reachability component's footprint: every
// per-task OM list pair's buckets, the per-strand node records (their
// list items inline), and all allocated
// hash tables (Figure 5's F-Order column).
func (r *Reach) MemBytes() int {
	total := int(r.strands.Load())*nodeSize + int(r.tblMem.Load())
	for _, l := range r.lists() {
		total += l.MemBytes()
	}
	return total
}

// RegisterStats publishes the F-Order counters (reach.*) and the
// maintenance counters of the per-task OM lists, aggregated across all
// tasks (om.*), on reg.
func (r *Reach) RegisterStats(reg *obsv.Registry) {
	reg.RegisterFunc("reach.queries", func() int64 { return int64(r.queries.Load()) })
	reg.RegisterFunc("reach.table_allocs", func() int64 { return int64(r.merges.Load()) })
	reg.RegisterFunc("reach.strands", func() int64 { return int64(r.strands.Load()) })
	reg.RegisterFunc("reach.table_mem_bytes", func() int64 { return r.tblMem.Load() })
	reg.RegisterFunc("reach.mem_bytes", func() int64 { return int64(r.MemBytes()) })
	reg.RegisterFunc("om.lists", func() int64 { return int64(len(r.lists())) })
	sum := func(pick func(splits, relabels, renumbers int) int) func() int64 {
		return func() int64 {
			total := 0
			for _, l := range r.lists() {
				total += pick(l.Stats())
			}
			return int64(total)
		}
	}
	reg.RegisterFunc("om.splits", sum(func(s, _, _ int) int { return s }))
	reg.RegisterFunc("om.relabels", sum(func(_, rl, _ int) int { return rl }))
	reg.RegisterFunc("om.renumbers", sum(func(_, _, rn int) int { return rn }))
	reg.RegisterFunc("om.escalations", func() int64 {
		var total int64
		for _, l := range r.lists() {
			total += l.Escalations()
		}
		return total
	})
}

var _ sched.Tracer = (*Reach)(nil)
