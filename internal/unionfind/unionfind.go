// Package unionfind implements a disjoint-set forest with union by rank
// and path compression — the substrate of the MultiBags sequential race
// detector (Utterback et al., PPoPP'19), whose amortized cost per
// operation is the inverse Ackermann function α(n) (≤ 4 in practice).
//
// Elements are dense integer IDs handed out by MakeSet. Each set carries
// an opaque user datum (the "bag" descriptor in MultiBags); Union keeps
// the datum of the set whose root survives, and SetData overwrites it.
package unionfind

// Forest is a disjoint-set forest. The zero value is an empty forest
// ready for use. Forest is not safe for concurrent use: MultiBags is an
// inherently sequential algorithm, which is precisely the limitation the
// SF-Order paper addresses.
type Forest struct {
	parent []int32
	rank   []int8
	data   []interface{}
}

// MakeSet creates a new singleton set carrying datum and returns its ID.
func (f *Forest) MakeSet(datum interface{}) int {
	id := len(f.parent)
	f.parent = append(f.parent, int32(id))
	f.rank = append(f.rank, 0)
	f.data = append(f.data, datum)
	return id
}

// Len returns the number of elements ever created.
func (f *Forest) Len() int { return len(f.parent) }

// Find returns the representative (root) of x's set, compressing the path.
func (f *Forest) Find(x int) int {
	root := x
	for int(f.parent[root]) != root {
		root = int(f.parent[root])
	}
	for int(f.parent[x]) != x {
		next := int(f.parent[x])
		f.parent[x] = int32(root)
		x = next
	}
	return root
}

// Union merges the sets containing a and b and returns the surviving
// root. The surviving root's datum is kept. Unioning a set with itself is
// a no-op returning the common root.
func (f *Forest) Union(a, b int) int {
	ra, rb := f.Find(a), f.Find(b)
	if ra == rb {
		return ra
	}
	if f.rank[ra] < f.rank[rb] {
		ra, rb = rb, ra
	}
	f.parent[rb] = int32(ra)
	if f.rank[ra] == f.rank[rb] {
		f.rank[ra]++
	}
	return ra
}

// UnionInto merges the set containing src into the set containing dst and
// forces the merged set's datum to be dst's datum. This is the MultiBags
// "empty bag B into bag A" primitive: the bag identity of A survives
// regardless of which root wins on rank.
func (f *Forest) UnionInto(dst, src int) int {
	datum := f.data[f.Find(dst)]
	root := f.Union(dst, src)
	f.data[root] = datum
	return root
}

// Data returns the datum attached to x's set.
func (f *Forest) Data(x int) interface{} { return f.data[f.Find(x)] }

// SetData overwrites the datum attached to x's set.
func (f *Forest) SetData(x int, datum interface{}) { f.data[f.Find(x)] = datum }

// Same reports whether a and b are in the same set.
func (f *Forest) Same(a, b int) bool { return f.Find(a) == f.Find(b) }
