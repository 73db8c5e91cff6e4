package bitset

import "testing"

func TestArenaCloneUnionMerge(t *testing.T) {
	a := &Arena{}
	s := NewRunSet(1, 70, 200)
	c := UnionIn(a, s, nil)
	if !c.Equal(s) || c == s {
		t.Fatalf("UnionIn(s, nil): got %v want a copy of %v", c, s)
	}
	// The window covers words 1..3 (ids 70 and 200); word 0 is the run.
	if got, want := c.MemBytes(), 8*3; got != want {
		t.Fatalf("clone mem %d, want %d", got, want)
	}

	x, y := NewRunSet(3, 64), NewRunSet(5, 130)
	u := UnionIn(a, x, y)
	if want := NewRunSet(3, 5, 64, 130); !u.Equal(want) {
		t.Fatalf("UnionIn: got %v want %v", u, want)
	}
	u2 := UnionAddIn(a, NewRunSet(1), NewRunSet(600), 2)
	if want := NewRunSet(1, 2, 600); !u2.Equal(want) {
		t.Fatalf("UnionAddIn: got %v want %v", u2, want)
	}

	m, alloc := MergeSharedIn(a, x, y)
	if !alloc || !m.Equal(UnionIn(nil, x, y)) {
		t.Fatalf("MergeSharedIn divergent: alloc=%v m=%v", alloc, m)
	}
	sub := NewRunSet(3)
	if m2, alloc2 := MergeSharedIn(a, x, sub); alloc2 || m2 != x {
		t.Fatalf("MergeSharedIn subsumed: expected shared pointer, got alloc=%v", alloc2)
	}
	if m3, alloc3 := MergeSharedIn(a, nil, nil); alloc3 || m3 != nil {
		t.Fatal("MergeSharedIn(nil,nil) should stay nil without allocating")
	}

	if a.Bytes() == 0 {
		t.Fatal("arena reported no page bytes after allocations")
	}
	a.Release()
	if a.Bytes() != 0 {
		t.Fatal("arena bytes nonzero after Release")
	}
}

// TestArenaNilFallback: every arena helper must work with a nil arena
// (the offline rebuild's set builders pass one).
func TestArenaNilFallback(t *testing.T) {
	var a *Arena
	if got := UnionIn(a, NewRunSet(9, 300), nil); !got.Equal(NewRunSet(9, 300)) {
		t.Fatalf("nil-arena clone: %v", got)
	}
	if got := UnionAddIn(a, NewRunSet(1), NewRunSet(200), 3); !got.Equal(NewRunSet(1, 3, 200)) {
		t.Fatalf("nil-arena UnionAddIn: %v", got)
	}
	if a.Bytes() != 0 {
		t.Fatal("nil arena must report zero bytes")
	}
	a.Release() // must not panic
}

// TestArenaSlicesAreCapped: a set that grows past its arena allocation
// must not overwrite its page neighbour.
func TestArenaSlicesAreCapped(t *testing.T) {
	a := &Arena{}
	first := UnionIn(a, NewRunSet(0, 70), nil)  // one window word
	second := UnionIn(a, NewRunSet(0, 71), nil) // adjacent word on the same page
	first.Add(200)                              // window grows past the one-word allocation
	first.Add(64)
	if !second.Equal(NewRunSet(0, 71)) {
		t.Fatalf("neighbour set corrupted by growth: %v", second)
	}
	if !first.Equal(NewRunSet(0, 64, 70, 200)) {
		t.Fatalf("grown set wrong: %v", first)
	}
}

// TestArenaCountsOversizeWindows: a window larger than a page goes to
// the heap, and Bytes must still count it (core.arena_bytes is the sum
// of these).
func TestArenaCountsOversizeWindows(t *testing.T) {
	a := &Arena{}
	far := (arenaPageWords + 10) * wordBits
	u := UnionIn(a, NewRunSet(0, 2), NewRunSet(2+far))
	if got, want := a.Bytes(), int64(u.MemBytes()); got != want || want <= 8*arenaPageWords {
		t.Fatalf("arena bytes %d after a %d-byte oversize window", got, want)
	}
	UnionIn(a, NewRunSet(0, 2), nil) // one pooled page on top
	if got, want := a.Bytes(), int64(u.MemBytes()+8*arenaPageWords); got != want {
		t.Fatalf("arena bytes %d, want %d", got, want)
	}
}
