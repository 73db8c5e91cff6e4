// Package dag models the computation dag of a task-parallel execution
// with fork-join and future parallelism (paper §2).
//
// A node is a strand: a maximal instruction sequence with no parallel
// control constructs. Edges carry kinds: the ordinary SP edges (Continue,
// Spawn, SyncJoin) connect nodes of the same future task, while the
// non-SP edges (Create, Get) connect distinct future tasks. A program
// restricted to spawn/sync generates a series-parallel dag; adding
// structured futures generates an SF-dag — a set of SP dags joined by
// create/get edges obeying the single-touch and handle-race-freedom
// restrictions.
//
// The package provides the passive graph representation recorded by the
// scheduler's tracer, exhaustive (oracle) reachability used to validate
// the constant-time detectors in tests, the SF-dag structural validator,
// work/span measurement, the serial (left-to-right depth-first) execution
// order, and DOT export for debugging.
package dag

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// EdgeKind classifies dag edges.
type EdgeKind uint8

const (
	// Continue edges link consecutive strands of one function instance.
	Continue EdgeKind = iota
	// Spawn edges go from a spawn strand to the first strand of the
	// spawned child function.
	Spawn
	// SyncJoin edges go from a spawned child's sink to the sync node
	// that joins it.
	SyncJoin
	// Create edges go from a create strand to the first strand of the
	// created future task (non-SP).
	Create
	// Get edges go from a future task's last strand (its put node) to
	// the strand following the get (non-SP).
	Get
)

// IsSP reports whether the edge kind is an ordinary series-parallel edge
// (i.e. not a create or get edge).
func (k EdgeKind) IsSP() bool { return k == Continue || k == Spawn || k == SyncJoin }

func (k EdgeKind) String() string {
	switch k {
	case Continue:
		return "continue"
	case Spawn:
		return "spawn"
	case SyncJoin:
		return "sync"
	case Create:
		return "create"
	case Get:
		return "get"
	default:
		return fmt.Sprintf("EdgeKind(%d)", uint8(k))
	}
}

// Edge is a directed dag edge.
type Edge struct {
	From, To *Node
	Kind     EdgeKind
}

// Node is a strand in the computation dag.
type Node struct {
	ID     int
	Future int    // ID of the future task (SP sub-dag) owning this strand
	Label  string // human-readable tag for tests and DOT output
	Out    []Edge
	In     []Edge
}

func (n *Node) String() string {
	if n == nil {
		return "<nil>"
	}
	if n.Label != "" {
		return fmt.Sprintf("n%d(%s)", n.ID, n.Label)
	}
	return fmt.Sprintf("n%d", n.ID)
}

// FutureMeta describes one future task (SP sub-dag) of the graph.
// The root function instance is future 0 with Parent == -1.
type FutureMeta struct {
	ID     int
	Parent int   // creating future's ID, -1 for the root
	First  *Node // unique entry strand
	Last   *Node // unique exit strand (the put node for real futures)
	Got    *Node // strand following the get edge, nil if never gotten
}

// Graph is a mutable computation dag. Mutators are safe for concurrent
// use (the parallel scheduler records from many workers); queries must
// run after mutation has stopped.
type Graph struct {
	mu      sync.Mutex
	nodes   []*Node
	futures []*FutureMeta
}

// New returns an empty graph containing the root future (ID 0) with no
// nodes yet.
func New() *Graph {
	g := &Graph{}
	g.futures = append(g.futures, &FutureMeta{ID: 0, Parent: -1})
	return g
}

// NewNode appends a node owned by the given future and returns it.
func (g *Graph) NewNode(future int, label string) *Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := &Node{ID: len(g.nodes), Future: future, Label: label}
	g.nodes = append(g.nodes, n)
	if f := g.futures[future]; f.First == nil {
		f.First = n
	}
	return n
}

// NewFuture registers a future task created by parent and returns its ID.
func (g *Graph) NewFuture(parent int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	id := len(g.futures)
	g.futures = append(g.futures, &FutureMeta{ID: id, Parent: parent})
	return id
}

// EnsureFuture registers the future task with an externally assigned ID
// (the scheduler allocates future IDs from its own counter, and under
// parallel execution registrations may arrive out of order). Registering
// the same ID twice is a no-op.
func (g *Graph) EnsureFuture(id, parent int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.futures) <= id {
		g.futures = append(g.futures, nil)
	}
	if g.futures[id] == nil {
		g.futures[id] = &FutureMeta{ID: id, Parent: parent}
	}
}

// AddEdge inserts the edge u -> v of the given kind.
func (g *Graph) AddEdge(u, v *Node, kind EdgeKind) {
	if u == nil || v == nil {
		panic("dag: AddEdge with nil node")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	e := Edge{From: u, To: v, Kind: kind}
	u.Out = append(u.Out, e)
	v.In = append(v.In, e)
}

// SetLast records the exit strand of a future task.
func (g *Graph) SetLast(future int, last *Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.futures[future].Last = last
}

// SetGot records the strand that received the future's value via get.
func (g *Graph) SetGot(future int, got *Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.futures[future].Got = got
}

// Nodes returns the nodes in creation order.
func (g *Graph) Nodes() []*Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*Node(nil), g.nodes...)
}

// NumNodes returns the number of strands.
func (g *Graph) NumNodes() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.nodes)
}

// Futures returns metadata for every future task, index == future ID.
func (g *Graph) Futures() []*FutureMeta {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*FutureMeta(nil), g.futures...)
}

// NumFutures returns the number of future tasks including the root.
func (g *Graph) NumFutures() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.futures)
}

// Root returns the first node of the root future, or nil when empty.
func (g *Graph) Root() *Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.futures[0].First
}

// Reachable reports whether there is a directed path from u to v (u == v
// does not count). This is the exhaustive oracle used to validate the
// constant-time detectors; it runs a BFS and is deliberately simple.
func (g *Graph) Reachable(u, v *Node) bool {
	if u == v {
		return false
	}
	seen := map[*Node]bool{u: true}
	queue := []*Node{u}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range cur.Out {
			if seen[e.To] {
				continue
			}
			if e.To == v {
				return true
			}
			seen[e.To] = true
			queue = append(queue, e.To)
		}
	}
	return false
}

// WorkSpan returns the work (number of strands) and span (longest
// directed path, in strands) of the dag.
func (g *Graph) WorkSpan() (work, span int) {
	order, err := g.Topological()
	if err != nil {
		panic("dag: WorkSpan on cyclic graph: " + err.Error())
	}
	depth := make(map[*Node]int, len(order))
	for _, n := range order {
		d := 1
		for _, e := range n.In {
			if depth[e.From]+1 > d {
				d = depth[e.From] + 1
			}
		}
		depth[n] = d
		if d > span {
			span = d
		}
	}
	return len(order), span
}

// Topological returns the nodes in a topological order, or an error when
// the graph has a cycle (which would indicate a recorder bug).
func (g *Graph) Topological() ([]*Node, error) {
	nodes := g.Nodes()
	indeg := make(map[*Node]int, len(nodes))
	for _, n := range nodes {
		indeg[n] = len(n.In)
	}
	var ready []*Node
	for _, n := range nodes {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	out := make([]*Node, 0, len(nodes))
	for len(ready) > 0 {
		n := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		out = append(out, n)
		for _, e := range n.Out {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	if len(out) != len(nodes) {
		return nil, fmt.Errorf("dag: cycle detected (%d of %d nodes ordered)", len(out), len(nodes))
	}
	return out, nil
}

// SerialOrder returns the nodes in the left-to-right depth-first
// execution order — the order the serial one-core execution visits them.
// At a spawn or create strand the child branch is entered before the
// continuation; join nodes (sync, get) are emitted when their last
// predecessor has been emitted.
func (g *Graph) SerialOrder() []*Node {
	nodes := g.Nodes()
	if len(nodes) == 0 {
		return nil
	}
	indeg := make(map[*Node]int, len(nodes))
	for _, n := range nodes {
		indeg[n] = len(n.In)
	}
	root := g.Root()
	out := make([]*Node, 0, len(nodes))
	stack := []*Node{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, n)
		// Push successors so that child branches pop before the
		// continuation: push continue-like edges first, branch edges
		// last (LIFO).
		var branch, serial []*Node
		for _, e := range n.Out {
			indeg[e.To]--
			if indeg[e.To] > 0 {
				continue
			}
			if e.Kind == Spawn || e.Kind == Create {
				branch = append(branch, e.To)
			} else {
				serial = append(serial, e.To)
			}
		}
		stack = append(stack, serial...)
		stack = append(stack, branch...)
	}
	return out
}

// Validate checks the structural invariants of an SF-dag (paper §2):
//
//  1. The graph is acyclic with a single root-future source.
//  2. Each future task has a unique first node (only node of the future
//     with an incoming create edge, Property 2) and a unique last node
//     (only node with an outgoing get edge).
//  3. Single-touch: at most one get edge leaves a future's last node.
//  4. Handle race freedom: for every gotten future G created by strand c
//     and gotten at strand g, a path from c's continuation to g exists
//     that avoids every node of G (the "no race on a future handle"
//     restriction).
//  5. SP edges connect same-future strands; create/get edges connect
//     distinct futures.
//
// Each violation cites the invariant it breaks; the full list is
// exported by Invariants(), and the scheduler's checked mode and the
// static analyzer cite the same identifiers.
func (g *Graph) Validate() error {
	if _, err := g.Topological(); err != nil {
		return fmt.Errorf("dag: %s violated: %w", invAcyclic.Cite(), err)
	}
	nodes := g.Nodes()
	futures := g.Futures()

	for _, n := range nodes {
		for _, e := range n.Out {
			sameFut := e.From.Future == e.To.Future
			if e.Kind.IsSP() && !sameFut {
				return fmt.Errorf("dag: %s violated: SP edge %v crosses futures %d->%d", invSPPartition.Cite(), e.Kind, e.From.Future, e.To.Future)
			}
			if !e.Kind.IsSP() && sameFut {
				return fmt.Errorf("dag: %s violated: non-SP edge %v within future %d", invSPPartition.Cite(), e.Kind, e.From.Future)
			}
		}
	}

	for _, f := range futures {
		if f.First == nil {
			return fmt.Errorf("dag: %s violated: future %d has no first node", invUniqueEntry.Cite(), f.ID)
		}
		getEdges := 0
		for _, n := range nodes {
			if n.Future != f.ID {
				continue
			}
			for _, e := range n.In {
				if e.Kind == Create && n != f.First {
					return fmt.Errorf("dag: %s violated: create edge into non-first node %v of future %d", invUniqueEntry.Cite(), n, f.ID)
				}
			}
			for _, e := range n.Out {
				if e.Kind == Get {
					if f.Last != nil && n != f.Last {
						return fmt.Errorf("dag: %s violated: get edge out of non-last node %v of future %d", invUniqueEntry.Cite(), n, f.ID)
					}
					getEdges++
				}
			}
		}
		if getEdges > 1 {
			return fmt.Errorf("dag: %s violated: future %d touched %d times", invSingleTouch.Cite(), f.ID, getEdges)
		}
	}

	// Handle race freedom: create-continuation must reach the get node
	// without entering the created future.
	for _, f := range futures {
		if f.ID == 0 || f.Got == nil {
			continue
		}
		var createNode *Node
		for _, e := range f.First.In {
			if e.Kind == Create {
				createNode = e.From
			}
		}
		if createNode == nil {
			return fmt.Errorf("dag: %s violated: future %d has no create edge", invUniqueEntry.Cite(), f.ID)
		}
		if !g.reachAvoidingFuture(createNode, f.Got, f.ID) {
			return fmt.Errorf("dag: %s violated: no handle-safe path from create of future %d to its get", invGetReachability.Cite(), f.ID)
		}
	}
	return nil
}

// reachAvoidingFuture reports whether v is reachable from u along paths
// whose intermediate nodes avoid future avoid, starting from u's non-create
// out-edges.
func (g *Graph) reachAvoidingFuture(u, v *Node, avoid int) bool {
	seen := map[*Node]bool{u: true}
	var queue []*Node
	for _, e := range u.Out {
		if e.Kind != Create && e.To.Future != avoid {
			queue = append(queue, e.To)
			seen[e.To] = true
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == v {
			return true
		}
		for _, e := range cur.Out {
			if seen[e.To] || e.To.Future == avoid {
				continue
			}
			seen[e.To] = true
			queue = append(queue, e.To)
		}
	}
	return false
}

// DOT renders the graph in Graphviz format, one cluster per future task.
func (g *Graph) DOT() string {
	nodes := g.Nodes()
	byFuture := map[int][]*Node{}
	for _, n := range nodes {
		byFuture[n.Future] = append(byFuture[n.Future], n)
	}
	futIDs := make([]int, 0, len(byFuture))
	for id := range byFuture {
		futIDs = append(futIDs, id)
	}
	sort.Ints(futIDs)

	var b strings.Builder
	b.WriteString("digraph sf {\n  rankdir=TB;\n")
	for _, fid := range futIDs {
		fmt.Fprintf(&b, "  subgraph cluster_f%d {\n    label=\"future %d\";\n", fid, fid)
		for _, n := range byFuture[fid] {
			fmt.Fprintf(&b, "    n%d [label=%q];\n", n.ID, n.String())
		}
		b.WriteString("  }\n")
	}
	for _, n := range nodes {
		for _, e := range n.Out {
			style := "solid"
			color := "black"
			switch e.Kind {
			case Create:
				color = "red"
			case Get:
				color = "blue"
			case SyncJoin:
				style = "dashed"
			}
			fmt.Fprintf(&b, "  n%d -> n%d [style=%s, color=%s];\n", e.From.ID, e.To.ID, style, color)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
