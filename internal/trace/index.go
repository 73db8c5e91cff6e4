package trace

import (
	"fmt"
	"math"

	"sforder/internal/sched"
)

// Role classifies how a strand entered the dag — which branch component
// its fork-path label appends to its parent's. The mapping to label
// components is the consumer's business (RoleChild and RoleGet map to
// depa.Child, RoleCont to depa.Cont, RoleSync to depa.Sync); the index
// stays substrate-agnostic.
type Role uint8

const (
	// RoleRoot is the run's root strand (no parent).
	RoleRoot Role = iota
	// RoleChild is a spawned child or a created future's first strand.
	RoleChild
	// RoleCont is the continuation of a forking strand.
	RoleCont
	// RoleSync is the eagerly placed sync placeholder of a region.
	RoleSync
	// RoleGet is a get strand: the serial successor of the getting
	// strand.
	RoleGet
)

// PathIndex is a capture's segment index: every strand's fork path —
// label parent and branch role — extracted from the structure events in
// one serial validating pass and laid out in introduction order, so
// parents always precede children and contiguous index ranges are
// independent units of label-construction work (depa.BuildTable).
// Replay does not use it, since it rebuilds in event order (EXPERIMENTS
// ABL13); PathIndex and Capture.Index stay only because the frozen
// bench/adapter.go times them.
//
// All per-strand arrays are indexed by introduction position (file
// order), not strand ID — under parallel recording, IDs are not
// monotone in file order, and only introduction order guarantees the
// parent-before-child topology the label recurrence needs. Pos maps
// strand IDs back to positions.
type PathIndex struct {
	// Order holds the strand IDs in introduction (file) order.
	Order []uint64
	// Parent holds, per introduction position, the position of the
	// strand's label parent (always smaller), -1 for the root.
	Parent []int32
	// Role holds each strand's branch role.
	Role []Role
	// Pos maps a strand ID to its introduction position (a capture
	// Rebuild accepts leaves no ID out).
	Pos []int32
}

// Index builds the capture's PathIndex in one Rebuild pass, which holds
// the capture to everything the rebuild depends on — a single leading
// root, every referenced strand and future introduced first, no double
// introductions, sync strands pre-placed at their region's first branch,
// puts preceding gets — and to the rest of the strand life cycle, except
// the get's handle check, which needs reachability. It performs no
// reachability work; an error here is a corrupt capture.
func (c *Capture) Index() (*PathIndex, error) {
	idx := &PathIndex{}
	if err := (&Rebuild{}).Run(c, indexer{idx}, nil); err != nil {
		return nil, err
	}
	if len(idx.Order) > math.MaxInt32 {
		return nil, fmt.Errorf("trace: index: %d strands exceed the index limit", len(idx.Order))
	}
	return idx, nil
}

// indexer is the tracer Index runs: it lays each strand out at its
// introduction, after its label parent.
type indexer struct{ *PathIndex }

func (x indexer) add(s, parent *sched.Strand, role Role) {
	p := int32(-1)
	if parent != nil {
		p = x.Pos[parent.ID]
	}
	for uint64(len(x.Pos)) <= s.ID {
		x.Pos = append(x.Pos, -1)
	}
	x.Pos[s.ID] = int32(len(x.Order))
	x.Order = append(x.Order, s.ID)
	x.Parent = append(x.Parent, p)
	x.Role = append(x.Role, role)
}

func (x indexer) OnRoot(root *sched.Strand) { x.add(root, nil, RoleRoot) }

func (x indexer) OnSpawn(u, child, cont, placeholder *sched.Strand) {
	x.add(child, u, RoleChild)
	x.add(cont, u, RoleCont)
	if placeholder != nil {
		x.add(placeholder, u, RoleSync)
	}
}

func (x indexer) OnCreate(u, first, cont, ph *sched.Strand, _ *sched.FutureTask) {
	x.OnSpawn(u, first, cont, ph)
}

func (x indexer) OnGet(u, g *sched.Strand, f *sched.FutureTask) { x.add(g, u, RoleGet) }

func (indexer) OnSync(k, s *sched.Strand, childSinks []*sched.Strand) {}
func (indexer) OnReturn(sink *sched.Strand)                           {}
func (indexer) OnPut(sink *sched.Strand, f *sched.FutureTask)         {}
