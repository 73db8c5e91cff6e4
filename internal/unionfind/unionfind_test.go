package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMakeSetFind(t *testing.T) {
	var f Forest
	a := f.MakeSet("a")
	b := f.MakeSet("b")
	if f.Len() != 2 {
		t.Fatalf("Len = %d", f.Len())
	}
	if f.Find(a) != a || f.Find(b) != b {
		t.Error("fresh sets must be their own roots")
	}
	if f.Same(a, b) {
		t.Error("fresh sets must be disjoint")
	}
	if f.Data(a) != "a" || f.Data(b) != "b" {
		t.Error("data lost")
	}
}

func TestUnionMerges(t *testing.T) {
	var f Forest
	a := f.MakeSet(1)
	b := f.MakeSet(2)
	c := f.MakeSet(3)
	f.Union(a, b)
	if !f.Same(a, b) || f.Same(a, c) {
		t.Error("union wrong")
	}
	r := f.Union(a, a)
	if r != f.Find(a) {
		t.Error("self-union should return root")
	}
	f.Union(b, c)
	if !f.Same(a, c) {
		t.Error("transitive union failed")
	}
}

func TestUnionIntoKeepsDstData(t *testing.T) {
	var f Forest
	// Build a tall-ish src so its root would win on rank.
	src := f.MakeSet("src")
	for i := 0; i < 8; i++ {
		x := f.MakeSet(i)
		f.Union(src, x)
	}
	dst := f.MakeSet("dst")
	f.UnionInto(dst, src)
	if f.Data(dst) != "dst" {
		t.Errorf("Data after UnionInto = %v, want dst", f.Data(dst))
	}
	if f.Data(src) != "dst" {
		t.Error("merged set must expose dst's datum from any member")
	}
}

func TestSetData(t *testing.T) {
	var f Forest
	a := f.MakeSet("old")
	b := f.MakeSet("x")
	f.Union(a, b)
	f.SetData(b, "new")
	if f.Data(a) != "new" {
		t.Error("SetData must apply to the whole set")
	}
}

func TestQuickAgainstMapModel(t *testing.T) {
	// Property: after arbitrary unions, Same agrees with a naive
	// connected-components model.
	f := func(pairs []uint8) bool {
		const n = 32
		var uf Forest
		ids := make([]int, n)
		for i := range ids {
			ids[i] = uf.MakeSet(i)
		}
		comp := make([]int, n)
		for i := range comp {
			comp[i] = i
		}
		merge := func(a, b int) {
			ca, cb := comp[a], comp[b]
			if ca == cb {
				return
			}
			for i := range comp {
				if comp[i] == cb {
					comp[i] = ca
				}
			}
		}
		for i := 0; i+1 < len(pairs); i += 2 {
			a, b := int(pairs[i])%n, int(pairs[i+1])%n
			uf.Union(ids[a], ids[b])
			merge(a, b)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if uf.Same(ids[i], ids[j]) != (comp[i] == comp[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPathCompressionFlattens(t *testing.T) {
	var f Forest
	n := 1024
	ids := make([]int, n)
	for i := range ids {
		ids[i] = f.MakeSet(nil)
	}
	for i := 1; i < n; i++ {
		f.Union(ids[0], ids[i])
	}
	// After Find on every element, every parent pointer should be the
	// root, so a subsequent pass does minimal work.
	root := f.Find(ids[0])
	for _, id := range ids {
		f.Find(id)
	}
	for _, id := range ids {
		if int(f.parent[id]) != root {
			t.Fatal("a parent pointer was not compressed to the root")
		}
		if f.Find(id) != root {
			t.Fatal("inconsistent root")
		}
	}
}

func BenchmarkUnionFind(b *testing.B) {
	var f Forest
	n := 1 << 14
	ids := make([]int, n)
	for i := range ids {
		ids[i] = f.MakeSet(nil)
	}
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := ids[rng.Intn(n)]
		c := ids[rng.Intn(n)]
		f.Union(a, c)
		f.Find(ids[rng.Intn(n)])
	}
}
