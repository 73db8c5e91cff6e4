// Package contract is the single authoritative list of the
// structured-futures restrictions (paper §2) that the rest of the repo
// enforces. Three enforcement layers cite these invariants:
//
//   - internal/dag.(*Graph).Validate — exhaustive post-hoc validation of
//     a recorded dag (tests and sfgen);
//   - internal/sched's checked mode (Options.CheckStructure) — on-the-fly
//     O(1)-per-operation validation during execution;
//   - internal/analysis / cmd/sfvet — static analysis over the program
//     source, before any execution.
//
// Keeping the list in one leaf package (imported by sched, dag, and
// analysis alike — dag cannot host it because dag imports sched) makes
// every diagnostic cite the same paper clause with the same identifier,
// so a static SF001 finding, a runtime panic, and a validator error for
// the same bug all name the same invariant.
package contract

import "fmt"

// Invariant is one structural restriction of the SF-dag model.
type Invariant struct {
	// ID is the stable machine-readable identifier ("single-touch").
	ID string
	// Clause cites the paper section that states the restriction.
	Clause string
	// Summary is the one-line human-readable statement.
	Summary string
}

// Cite renders the invariant as "<id> (paper <clause>)" for inclusion in
// diagnostics and panic messages.
func (v Invariant) Cite() string { return fmt.Sprintf("%s (paper %s)", v.ID, v.Clause) }

func (v Invariant) String() string {
	return fmt.Sprintf("%s (paper %s): %s", v.ID, v.Clause, v.Summary)
}

// The structured-futures restrictions and SF-dag well-formedness
// properties (paper §2).
var (
	// SingleTouch is restriction 1 of structured futures: each future
	// handle is touched by Get at most once over the whole execution.
	SingleTouch = Invariant{
		ID:      "single-touch",
		Clause:  "§2",
		Summary: "each future handle is touched by Get at most once",
	}

	// GetReachability is restriction 2 (handle race freedom): the Get of
	// a future must be sequentially reachable from the continuation of
	// its Create without passing through the created task, i.e. the
	// handle only flows forward along the program order.
	GetReachability = Invariant{
		ID:      "get-reachability",
		Clause:  "§2",
		Summary: "a Get must be reachable from its Create's continuation without passing through the created task",
	}

	// SPPartition is the SF-dag well-formedness property that SP edges
	// (continue, spawn, sync) stay within one future task while create
	// and get edges cross future tasks.
	SPPartition = Invariant{
		ID:      "sp-partition",
		Clause:  "§2",
		Summary: "SP edges connect strands of one future task; create/get edges connect distinct future tasks",
	}

	// UniqueEntry is Property 2 of the paper: each future task has a
	// unique first strand (the only strand with an incoming create edge)
	// and a unique last strand (the only strand with an outgoing get
	// edge, its put node).
	UniqueEntry = Invariant{
		ID:      "unique-entry-exit",
		Clause:  "§2 Property 2",
		Summary: "each future task has a unique first strand and a unique last (put) strand",
	}

	// Acyclic: the computation forms a dag rooted at the initial strand.
	Acyclic = Invariant{
		ID:      "acyclic",
		Clause:  "§2",
		Summary: "the computation graph is acyclic with a single root source",
	}

	// AnnotatedSharing is not an SF-dag restriction but the detector's
	// observation contract (§4): the detector only sees accesses
	// annotated via Task.Read/Task.Write, so memory shared between a
	// task body and its continuation without shadow annotations is
	// invisible to race detection.
	AnnotatedSharing = Invariant{
		ID:      "annotated-sharing",
		Clause:  "§4",
		Summary: "shared memory accesses must be annotated with Task.Read/Task.Write for the detector to see them",
	}
)

// All returns every invariant in citation order.
func All() []Invariant {
	return []Invariant{SingleTouch, GetReachability, SPPartition, UniqueEntry, Acyclic, AnnotatedSharing}
}
