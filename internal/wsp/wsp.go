// Package wsp implements WSP-Order (Utterback, Agrawal, Fineman, Lee,
// SPAA'16), the asymptotically optimal parallel race detector for pure
// fork-join (series-parallel) programs that SF-Order builds on (paper
// §2): two order-maintenance lists holding the English and Hebrew orders
// of the SP dag, answering Precedes in amortized constant time with no
// other per-node state.
//
// It exists standalone for two reasons. First, it is the natural
// detector when a program uses no futures: SF-Order degenerates to
// exactly this plus (never-populated) gp/cp bookkeeping, and wsp skips
// that bookkeeping. Second, it documents the inheritance: internal/core
// is WSP-Order on the pseudo-SP-dag plus the future bitmaps, and the two
// packages' placement logic can be compared side by side.
//
// Programs containing Create/Get must not use this detector: it panics
// on the first future event rather than silently answering wrongly.
package wsp

import (
	"sync/atomic"
	"unsafe"

	"sforder/internal/obsv"
	"sforder/internal/om"
	"sforder/internal/sched"
)

// node is the per-strand state: just the two list positions, held
// inline.
type node struct {
	eng, heb om.Item
}

// Reach is the WSP-Order reachability component for fork-join programs.
// It implements sched.Tracer and detect.Reachability.
type Reach struct {
	engL, hebL *om.List
	queries    atomic.Uint64
	strands    atomic.Uint64
}

// NewReach returns an empty WSP-Order component.
func NewReach() *Reach {
	return &Reach{engL: om.NewList(), hebL: om.NewList()}
}

func nodeOf(s *sched.Strand) *node { return s.Det.(*node) }

// OnRoot implements sched.Tracer.
func (r *Reach) OnRoot(root *sched.Strand) {
	r.strands.Add(1)
	rn := &node{}
	r.engL.InsertFirst(&rn.eng)
	r.hebL.InsertFirst(&rn.heb)
	root.Det = rn
}

// OnSpawn implements sched.Tracer: English order u, child, cont
// [, placeholder]; Hebrew order u, cont, child[, placeholder].
func (r *Reach) OnSpawn(u, child, cont, placeholder *sched.Strand) {
	un, cn, kn := nodeOf(u), &node{}, &node{}
	eng := []*om.Item{&cn.eng, &kn.eng}
	heb := []*om.Item{&kn.heb, &cn.heb}
	if placeholder != nil {
		pn := &node{}
		eng, heb = append(eng, &pn.eng), append(heb, &pn.heb)
		placeholder.Det = pn
	}
	r.strands.Add(uint64(len(eng)))
	r.engL.InsertAfterN(&un.eng, eng)
	r.hebL.InsertAfterN(&un.heb, heb)
	child.Det = cn
	cont.Det = kn
}

// OnSync implements sched.Tracer (the join strand was pre-placed).
func (r *Reach) OnSync(k, s *sched.Strand, childSinks []*sched.Strand) {}

// OnReturn implements sched.Tracer.
func (r *Reach) OnReturn(sink *sched.Strand) {}

// OnCreate implements sched.Tracer by rejecting futures.
func (r *Reach) OnCreate(u, first, cont, placeholder *sched.Strand, f *sched.FutureTask) {
	panic("wsp: WSP-Order handles fork-join programs only; use SF-Order for futures")
}

// OnPut implements sched.Tracer. The root computation is future task 0
// even in a pure fork-join program, so its put event is expected; any
// other future task would have been rejected at OnCreate.
func (r *Reach) OnPut(sink *sched.Strand, f *sched.FutureTask) {}

// OnGet implements sched.Tracer by rejecting futures.
func (r *Reach) OnGet(u, g *sched.Strand, f *sched.FutureTask) {
	panic("wsp: WSP-Order handles fork-join programs only; use SF-Order for futures")
}

// Precedes reports whether u precedes v in the SP dag: before in both
// total orders. Amortized O(1).
func (r *Reach) Precedes(u, v *sched.Strand) bool {
	r.queries.Add(1)
	if u == v {
		return true
	}
	un, vn := nodeOf(u), nodeOf(v)
	return r.engL.Precedes(&un.eng, &vn.eng) && r.hebL.Precedes(&un.heb, &vn.heb)
}

// LeftOf reports whether a is earlier in the English order, for the
// leftmost/rightmost reader policy (which for pure fork-join needs just
// one pair per location — Mellor-Crummey's classic bound).
func (r *Reach) LeftOf(a, b *sched.Strand) bool {
	return r.engL.Precedes(&nodeOf(a).eng, &nodeOf(b).eng)
}

// Queries returns the number of Precedes calls served.
func (r *Reach) Queries() uint64 { return r.queries.Load() }

// nodeSize is the real per-strand record size, derived so the memory
// estimate stays honest as the struct evolves.
var nodeSize = int(unsafe.Sizeof(node{}))

// MemBytes estimates the component's footprint: the lists' buckets and
// one node per strand, items included.
func (r *Reach) MemBytes() int {
	return r.engL.MemBytes() + r.hebL.MemBytes() + int(r.strands.Load())*nodeSize
}

// RegisterStats publishes the WSP-Order counters (reach.*) and both OM
// lists' maintenance counters (om.english.*, om.hebrew.*) on reg.
func (r *Reach) RegisterStats(reg *obsv.Registry) {
	reg.RegisterFunc("reach.queries", func() int64 { return int64(r.queries.Load()) })
	reg.RegisterFunc("reach.strands", func() int64 { return int64(r.strands.Load()) })
	reg.RegisterFunc("reach.mem_bytes", func() int64 { return int64(r.MemBytes()) })
	r.engL.RegisterStats(reg, "om.english")
	r.hebL.RegisterStats(reg, "om.hebrew")
}

var _ sched.Tracer = (*Reach)(nil)
