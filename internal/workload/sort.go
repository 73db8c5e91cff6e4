package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"sforder/internal/sched"
)

// Sort returns parallel mergesort over n int32 keys with serial base
// case b. The recursive sorts of the two halves run as a created future
// (left) plus the continuation (right), and the divide-and-conquer
// merge (binary splitting) also runs its left half as a future — the
// future-heavy mergesort of the paper, whose future count scales as
// (n/b)·log(n/b).
func Sort(n, b int) *Benchmark {
	if b < 4 || n < 1 {
		panic(fmt.Sprintf("workload: Sort requires n ≥ 1, b ≥ 4; got n=%d b=%d", n, b))
	}
	return &Benchmark{
		Name: "sort",
		Desc: "parallel mergesort",
		N:    n,
		B:    b,
		Make: func() *Run { return newSortRun(n, b) },
	}
}

type sortState struct {
	n, b int
	data []int32 // shadow addrs [0, n)
	tmp  []int32 // shadow addrs [n, 2n)
}

func newSortRun(n, b int) *Run {
	st := &sortState{n: n, b: b, data: make([]int32, n), tmp: make([]int32, n)}
	rng := rand.New(rand.NewSource(1234))
	for i := range st.data {
		st.data[i] = int32(rng.Intn(1 << 30))
	}
	return &Run{
		Main:   func(t *sched.Task) { st.mergesort(t, 0, n, false) },
		Verify: st.verify,
	}
}

func (s *sortState) addr(i int, inTmp bool) uint64 {
	if inTmp {
		return uint64(s.n + i)
	}
	return uint64(i)
}

func (s *sortState) buf(inTmp bool) []int32 {
	if inTmp {
		return s.tmp
	}
	return s.data
}

// mergesort sorts [lo, hi) of data (or tmp when toTmp's source flips),
// leaving the result in data when toTmp is false and in tmp otherwise.
func (s *sortState) mergesort(t *sched.Task, lo, hi int, toTmp bool) {
	n := hi - lo
	if n <= s.b {
		s.baseSort(t, lo, hi)
		if toTmp {
			t.ReadRange(s.addr(lo, false), n)
			t.WriteRange(s.addr(lo, true), n)
			copy(s.tmp[lo:hi], s.data[lo:hi])
		}
		return
	}
	mid := lo + n/2
	h := t.Create(func(c *sched.Task) any {
		s.mergesort(c, lo, mid, !toTmp)
		return nil
	})
	s.mergesort(t, mid, hi, !toTmp)
	t.Get(h)
	s.merge(t, lo, mid, mid, hi, lo, !toTmp, toTmp)
}

// baseSort sorts [lo, hi) of data in place, charging one read and one
// write per element moved (insertion-sort cost model over a real
// sort.Slice to keep test sizes fast).
func (s *sortState) baseSort(t *sched.Task, lo, hi int) {
	seg := s.data[lo:hi]
	sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
	t.ReadRange(s.addr(lo, false), hi-lo)
	t.WriteRange(s.addr(lo, false), hi-lo)
}

// merge merges src[lo1,hi1) and src[lo2,hi2) into dst starting at out,
// in parallel by binary splitting. srcTmp/dstTmp select the arrays.
func (s *sortState) merge(t *sched.Task, lo1, hi1, lo2, hi2, out int, srcTmp, dstTmp bool) {
	n1, n2 := hi1-lo1, hi2-lo2
	if n1+n2 <= s.b {
		s.serialMerge(t, lo1, hi1, lo2, hi2, out, srcTmp, dstTmp)
		return
	}
	if n1 < n2 {
		lo1, hi1, lo2, hi2 = lo2, hi2, lo1, hi1
		n1, n2 = n2, n1
	}
	mid1 := (lo1 + hi1) / 2
	src := s.buf(srcTmp)
	pivot := src[mid1]
	t.Read(s.addr(mid1, srcTmp))
	// Binary-search the split point in the second run.
	mid2 := lo2 + sort.Search(n2, func(i int) bool {
		return src[lo2+i] >= pivot
	})
	t.Read(s.addr(min(mid2, hi2-1), srcTmp)) // charge the probe
	outMid := out + (mid1 - lo1) + (mid2 - lo2)
	h := t.Create(func(c *sched.Task) any {
		s.merge(c, lo1, mid1, lo2, mid2, out, srcTmp, dstTmp)
		return nil
	})
	s.merge(t, mid1, hi1, mid2, hi2, outMid, srcTmp, dstTmp)
	t.Get(h)
}

// serialMerge merges src[lo1,hi1) and src[lo2,hi2) into dst from out on.
// The main loop annotates element by element: which elements it reads
// again depends on the data. Each tail is a copy, one range of reads and
// one of writes.
func (s *sortState) serialMerge(t *sched.Task, lo1, hi1, lo2, hi2, out int, srcTmp, dstTmp bool) {
	src, dst := s.buf(srcTmp), s.buf(dstTmp)
	i, j, o := lo1, lo2, out
	for i < hi1 && j < hi2 {
		t.Read(s.addr(i, srcTmp))
		t.Read(s.addr(j, srcTmp))
		if src[i] <= src[j] {
			t.Write(s.addr(o, dstTmp))
			dst[o] = src[i]
			i++
		} else {
			t.Write(s.addr(o, dstTmp))
			dst[o] = src[j]
			j++
		}
		o++
	}
	tail := func(lo, hi int) {
		t.ReadRange(s.addr(lo, srcTmp), hi-lo)
		t.WriteRange(s.addr(o, dstTmp), hi-lo)
		o += copy(dst[o:], src[lo:hi])
	}
	tail(i, hi1)
	tail(j, hi2)
}

func (s *sortState) verify() error {
	for i := 1; i < s.n; i++ {
		if s.data[i-1] > s.data[i] {
			return fmt.Errorf("sort: data[%d]=%d > data[%d]=%d", i-1, s.data[i-1], i, s.data[i])
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
