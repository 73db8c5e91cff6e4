package dag

import (
	"strings"
	"testing"
)

// buildPaperStyle builds a small SF-dag by hand:
//
//	future 0 (root):  a --create--> future 1;  a -> b -> g(get) -> z
//	future 1:         f1 -> p1 (put), p1 --get--> g
func buildPaperStyle() (*Graph, map[string]*Node) {
	g := New()
	a := g.NewNode(0, "a")
	f1id := g.NewFuture(0)
	f1 := g.NewNode(f1id, "f1")
	p1 := g.NewNode(f1id, "p1")
	b := g.NewNode(0, "b")
	gt := g.NewNode(0, "g")
	z := g.NewNode(0, "z")
	g.AddEdge(a, f1, Create)
	g.AddEdge(a, b, Continue)
	g.AddEdge(f1, p1, Continue)
	g.AddEdge(b, gt, Continue)
	g.AddEdge(p1, gt, Get)
	g.AddEdge(gt, z, Continue)
	g.SetLast(0, z)
	g.SetLast(f1id, p1)
	g.SetGot(f1id, gt)
	return g, map[string]*Node{"a": a, "f1": f1, "p1": p1, "b": b, "g": gt, "z": z}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	g, _ := buildPaperStyle()
	if err := g.Validate(); err != nil {
		t.Fatalf("well-formed dag rejected: %v", err)
	}
}

func TestReachabilityRelations(t *testing.T) {
	g, n := buildPaperStyle()
	cases := []struct {
		from, to string
		any      bool
	}{
		{"a", "b", true},
		{"a", "f1", true},
		{"f1", "g", true}, // only via get edge
		{"f1", "b", false},
		{"b", "f1", false},
		{"a", "z", true},
		{"p1", "z", true},
		{"z", "a", false},
		{"a", "a", false}, // reachability is strict
	}
	for _, c := range cases {
		if got := g.Reachable(n[c.from], n[c.to]); got != c.any {
			t.Errorf("Reachable(%s,%s) = %v, want %v", c.from, c.to, got, c.any)
		}
	}
}

func TestWorkSpan(t *testing.T) {
	g, _ := buildPaperStyle()
	work, span := g.WorkSpan()
	if work != 6 {
		t.Errorf("work = %d, want 6", work)
	}
	// Longest path a->f1->p1->g->z = 5.
	if span != 5 {
		t.Errorf("span = %d, want 5", span)
	}
}

func TestValidateRejectsDoubleTouch(t *testing.T) {
	g := New()
	a := g.NewNode(0, "a")
	fid := g.NewFuture(0)
	f := g.NewNode(fid, "f")
	b := g.NewNode(0, "b")
	c := g.NewNode(0, "c")
	g.AddEdge(a, f, Create)
	g.AddEdge(a, b, Continue)
	g.AddEdge(b, c, Continue)
	g.AddEdge(f, b, Get)
	g.AddEdge(f, c, Get) // second touch
	g.SetLast(fid, f)
	g.SetGot(fid, b)
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "single-touch") {
		t.Fatalf("expected single-touch violation, got %v", err)
	}
}

func TestValidateRejectsCrossFutureSPEdge(t *testing.T) {
	g := New()
	a := g.NewNode(0, "a")
	fid := g.NewFuture(0)
	f := g.NewNode(fid, "f")
	g.AddEdge(a, f, Continue) // SP edge crossing futures
	if err := g.Validate(); err == nil {
		t.Fatal("expected cross-future SP edge rejection")
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	g := New()
	a := g.NewNode(0, "a")
	b := g.NewNode(0, "b")
	g.AddEdge(a, b, Continue)
	g.AddEdge(b, a, Continue)
	if err := g.Validate(); err == nil {
		t.Fatal("expected cycle rejection")
	}
}

func TestValidateRejectsHandleRace(t *testing.T) {
	// The get node is NOT reachable from the create continuation without
	// going through the future: model a handle leaked to a parallel
	// branch. Root: a spawns s-child (c1), continuation k. a creates F
	// inside child c1; the get happens in k which is parallel to c1.
	g := New()
	a := g.NewNode(0, "a")
	c1 := g.NewNode(0, "c1")
	k := g.NewNode(0, "k")
	sy := g.NewNode(0, "sync")
	g.AddEdge(a, c1, Spawn)
	g.AddEdge(a, k, Continue)
	fid := g.NewFuture(0)
	f := g.NewNode(fid, "f")
	g.AddEdge(c1, f, Create)
	c1b := g.NewNode(0, "c1b")
	g.AddEdge(c1, c1b, Continue)
	gt := g.NewNode(0, "gt")
	g.AddEdge(k, gt, Continue)
	g.AddEdge(f, gt, Get) // get in branch parallel to the create
	g.AddEdge(gt, sy, Continue)
	g.AddEdge(c1b, sy, SyncJoin)
	g.SetLast(fid, f)
	g.SetGot(fid, gt)
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "handle-safe") {
		t.Fatalf("expected handle-race rejection, got %v", err)
	}
}

func TestValidateRejectsCreateIntoMiddle(t *testing.T) {
	g := New()
	a := g.NewNode(0, "a")
	fid := g.NewFuture(0)
	f1 := g.NewNode(fid, "f1")
	f2 := g.NewNode(fid, "f2")
	g.AddEdge(f1, f2, Continue)
	g.AddEdge(a, f2, Create) // create edge into a non-first node
	if err := g.Validate(); err == nil {
		t.Fatal("expected rejection of create edge into non-first node")
	}
}

func TestSerialOrderSimple(t *testing.T) {
	// a spawns c (child), continuation k, sync s. Serial order must be
	// a, c, k, s (child before continuation).
	g := New()
	a := g.NewNode(0, "a")
	c := g.NewNode(0, "c")
	k := g.NewNode(0, "k")
	s := g.NewNode(0, "s")
	g.AddEdge(a, c, Spawn)
	g.AddEdge(a, k, Continue)
	g.AddEdge(c, s, SyncJoin)
	g.AddEdge(k, s, Continue)
	order := g.SerialOrder()
	want := []*Node{a, c, k, s}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("serial order[%d] = %v, want %v", i, order[i], want[i])
		}
	}
}

func TestTopologicalOnEmpty(t *testing.T) {
	g := New()
	if order, err := g.Topological(); err != nil || len(order) != 0 {
		t.Fatal("empty graph should topo-sort trivially")
	}
	if g.SerialOrder() != nil {
		t.Fatal("empty graph has no serial order")
	}
}

func TestDOTOutput(t *testing.T) {
	g, _ := buildPaperStyle()
	dot := g.DOT()
	for _, want := range []string{"digraph", "cluster_f0", "cluster_f1", "color=red", "color=blue"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestEdgeKindString(t *testing.T) {
	for k, want := range map[EdgeKind]string{
		Continue: "continue", Spawn: "spawn", SyncJoin: "sync",
		Create: "create", Get: "get", EdgeKind(99): "EdgeKind(99)",
	} {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", k, k.String(), want)
		}
	}
	if !Continue.IsSP() || Create.IsSP() || Get.IsSP() {
		t.Error("IsSP misclassifies")
	}
}

func TestAddEdgeNilPanics(t *testing.T) {
	g := New()
	a := g.NewNode(0, "a")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on nil edge endpoint")
		}
	}()
	g.AddEdge(a, nil, Continue)
}
