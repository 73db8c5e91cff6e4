package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroValueAndNil(t *testing.T) {
	var s Set
	if s.Len() != 0 || !s.Empty() {
		t.Error("zero value should be empty")
	}
	var p *Set
	if p.Contains(3) {
		t.Error("nil set contains nothing")
	}
	if p.Len() != 0 {
		t.Error("nil set has length 0")
	}
	if !p.Subsumes(nil) {
		t.Error("nil subsumes nil")
	}
	if p.MemBytes() != 0 {
		t.Error("nil set uses no memory")
	}
}

func TestAddContains(t *testing.T) {
	s := New(0)
	ids := []int{0, 1, 63, 64, 65, 127, 128, 1000}
	for _, id := range ids {
		s.Add(id)
	}
	for _, id := range ids {
		if !s.Contains(id) {
			t.Errorf("missing %d", id)
		}
	}
	if s.Contains(2) || s.Contains(999) || s.Contains(-1) {
		t.Error("contains reports absent ids")
	}
	if s.Len() != len(ids) {
		t.Errorf("Len = %d, want %d", s.Len(), len(ids))
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative id")
		}
	}()
	New(0).Add(-1)
}

func TestFromIDsAndIDs(t *testing.T) {
	s := FromIDs(5, 1, 9, 1)
	got := s.IDs()
	want := []int{1, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
	if s.String() != "{1, 5, 9}" {
		t.Errorf("String = %q", s.String())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIDs(1, 2, 3)
	b := a.Clone()
	b.Add(100)
	if a.Contains(100) {
		t.Error("clone aliases original")
	}
	var p *Set
	c := p.Clone()
	c.Add(1)
	if !c.Contains(1) {
		t.Error("clone of nil is usable")
	}
}

func TestUnionAndSubsumes(t *testing.T) {
	a := FromIDs(1, 2, 70)
	b := FromIDs(2, 3)
	u := Union(a, b)
	for _, id := range []int{1, 2, 3, 70} {
		if !u.Contains(id) {
			t.Errorf("union missing %d", id)
		}
	}
	if !u.Subsumes(a) || !u.Subsumes(b) {
		t.Error("union must subsume both inputs")
	}
	if a.Subsumes(b) || b.Subsumes(a) {
		t.Error("unrelated sets must not subsume each other")
	}
	if !a.Subsumes(nil) {
		t.Error("everything subsumes nil")
	}
	// Shorter set subsuming longer set with zero high words.
	c := FromIDs(1)
	d := New(600) // preallocated zero high words
	d.Add(1)
	if !c.Subsumes(d) {
		t.Error("zero high words must not break Subsumes")
	}
	if !c.Equal(d) || a.Equal(b) {
		t.Error("Equal incorrect")
	}
}

func TestMergeSharedPolicy(t *testing.T) {
	a := FromIDs(1, 2)
	b := FromIDs(1)
	// a subsumes b: no allocation, a returned.
	m, alloc := MergeShared(a, b)
	if alloc || m != a {
		t.Error("subsuming side should be shared, not copied")
	}
	m, alloc = MergeShared(b, a)
	if alloc || m != a {
		t.Error("order must not matter for subsumption")
	}
	// Divergent sets: allocation required.
	c := FromIDs(9)
	m, alloc = MergeShared(a, c)
	if !alloc {
		t.Error("divergent sets must allocate")
	}
	if !m.Contains(1) || !m.Contains(2) || !m.Contains(9) {
		t.Error("merge lost members")
	}
	// Nil handling.
	if m, alloc = MergeShared(nil, nil); m != nil || alloc {
		t.Error("nil+nil should stay nil without allocation")
	}
	if m, alloc = MergeShared(a, nil); m != a || alloc {
		t.Error("x+nil should share x")
	}
}

func TestQuickUnionModel(t *testing.T) {
	// Property: Union behaves like a set-theoretic union over a map model.
	f := func(xs, ys []uint8) bool {
		a, b := New(0), New(0)
		model := map[int]bool{}
		for _, x := range xs {
			a.Add(int(x))
			model[int(x)] = true
		}
		for _, y := range ys {
			b.Add(int(y))
			model[int(y)] = true
		}
		u := Union(a, b)
		if u.Len() != len(model) {
			return false
		}
		for id := range model {
			if !u.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubsumesReflectsMembership(t *testing.T) {
	f := func(xs []uint8, extra uint8) bool {
		a := New(0)
		for _, x := range xs {
			a.Add(int(x))
		}
		sup := a.Clone()
		sup.Add(int(extra) + 256) // strictly larger
		return sup.Subsumes(a) && !a.Subsumes(sup)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemBytes(t *testing.T) {
	s := New(0)
	s.Add(1000)
	if s.MemBytes() < 8*(1000/64) {
		t.Errorf("MemBytes = %d, too small for id 1000", s.MemBytes())
	}
}

func BenchmarkAddContains(b *testing.B) {
	s := New(1024)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 512; i++ {
		s.Add(rng.Intn(1024))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Contains(i & 1023)
	}
}

func BenchmarkMergeSharedDivergent(b *testing.B) {
	x := FromIDs(1, 100, 500)
	y := FromIDs(2, 300, 900)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeShared(x, y)
	}
}
