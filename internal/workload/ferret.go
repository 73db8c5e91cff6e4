package workload

import (
	"fmt"

	"sforder/internal/sched"
)

// Ferret returns the content-based similarity-search pipeline: a
// synthetic stand-in for the PARSEC application. Each of the q query
// images flows through four stages — segment, extract features, index
// lookup, rank — with each stage a future that gets its predecessor, so
// the computation is q independent four-stage future chains (4·q futures,
// matching the paper's 256 futures for its input). dim is the feature
// vector length.
//
// The profile is write-heavier than the other benchmarks (each stage
// materializes a derived vector), mirroring Figure 3's ferret row.
func Ferret(q, dim int) *Benchmark {
	if q < 1 || dim < 8 {
		panic(fmt.Sprintf("workload: Ferret bad params q=%d dim=%d", q, dim))
	}
	return &Benchmark{
		Name: "ferret",
		Desc: "content-based similarity search pipeline (synthetic PARSEC kernel)",
		N:    q,
		B:    0,
		Make: func() *Run { return newFerretRun(q, dim) },
	}
}

type ferretState struct {
	q, dim int
	input  []int32 // q×dim raw "images"
	seg    []int32 // q×dim segmented
	feat   []int32 // q×dim features
	cand   []int32 // q×dim candidate scores
	rank   []int32 // q final ranks
	want   []int32
}

func newFerretRun(q, dim int) *Run {
	st := &ferretState{
		q: q, dim: dim,
		input: make([]int32, q*dim),
		seg:   make([]int32, q*dim),
		feat:  make([]int32, q*dim),
		cand:  make([]int32, q*dim),
		rank:  make([]int32, q),
	}
	for i := range st.input {
		x := uint32(i)*2246822519 + 374761393
		x ^= x >> 15
		st.input[i] = int32(x % 1021)
	}
	st.want = st.reference()
	return &Run{Main: st.main, Verify: st.verify}
}

// Shadow layout: input, seg, feat, cand, rank laid out consecutively.
func (s *ferretState) addrInput(i int) uint64 { return uint64(i) }
func (s *ferretState) addrSeg(i int) uint64   { return uint64(s.q*s.dim + i) }
func (s *ferretState) addrFeat(i int) uint64  { return uint64(2*s.q*s.dim + i) }
func (s *ferretState) addrCand(i int) uint64  { return uint64(3*s.q*s.dim + i) }
func (s *ferretState) addrRank(i int) uint64  { return uint64(4*s.q*s.dim + i) }

func (s *ferretState) main(t *sched.Task) {
	final := make([]*sched.Future, s.q)
	for qi := 0; qi < s.q; qi++ {
		qi := qi
		hSeg := t.Create(func(c *sched.Task) any { s.segment(c, qi); return nil })
		hFeat := t.Create(func(c *sched.Task) any {
			c.Get(hSeg)
			s.extract(c, qi)
			return nil
		})
		hCand := t.Create(func(c *sched.Task) any {
			c.Get(hFeat)
			s.index(c, qi)
			return nil
		})
		final[qi] = t.Create(func(c *sched.Task) any {
			c.Get(hCand)
			s.rankStage(c, qi)
			return nil
		})
	}
	// Serial output stage: collect ranks in query order.
	for qi := 0; qi < s.q; qi++ {
		t.Get(final[qi])
		t.Read(s.addrRank(qi))
	}
}

func (s *ferretState) segment(t *sched.Task, qi int) {
	off := qi * s.dim
	t.ReadRange(s.addrInput(off), s.dim)
	t.WriteRange(s.addrSeg(off), s.dim)
	for i := 0; i < s.dim; i++ {
		s.seg[off+i] = s.input[off+i] / 3
	}
}

// extract reads seg[i] and seg[i-1] for each i: the row, and the row but
// its last element again, 2·dim−1 reads.
func (s *ferretState) extract(t *sched.Task, qi int) {
	off := qi * s.dim
	t.ReadRange(s.addrSeg(off), s.dim)
	t.ReadRange(s.addrSeg(off), s.dim-1)
	t.WriteRange(s.addrFeat(off), s.dim)
	for i := 0; i < s.dim; i++ {
		prev := int32(0)
		if i > 0 {
			prev = s.seg[off+i-1]
		}
		s.feat[off+i] = s.seg[off+i] - prev
	}
}

func (s *ferretState) index(t *sched.Task, qi int) {
	off := qi * s.dim
	t.ReadRange(s.addrFeat(off), s.dim)
	t.WriteRange(s.addrCand(off), s.dim)
	for i := 0; i < s.dim; i++ {
		v := s.feat[off+i]
		if v < 0 {
			v = -v
		}
		s.cand[off+i] = v % 97
	}
}

func (s *ferretState) rankStage(t *sched.Task, qi int) {
	off := qi * s.dim
	var best int32
	t.ReadRange(s.addrCand(off), s.dim)
	for i := 0; i < s.dim; i++ {
		if s.cand[off+i] > best {
			best = s.cand[off+i]
		}
	}
	t.Write(s.addrRank(qi))
	s.rank[qi] = best
}

func (s *ferretState) reference() []int32 {
	out := make([]int32, s.q)
	for qi := 0; qi < s.q; qi++ {
		prevSeg := int32(0)
		var best int32
		for i := 0; i < s.dim; i++ {
			seg := s.input[qi*s.dim+i] / 3
			feat := seg - prevSeg
			prevSeg = seg
			if feat < 0 {
				feat = -feat
			}
			cand := feat % 97
			if cand > best {
				best = cand
			}
		}
		out[qi] = best
	}
	return out
}

func (s *ferretState) verify() error {
	for qi, want := range s.want {
		if s.rank[qi] != want {
			return fmt.Errorf("ferret: rank[%d] = %d, want %d", qi, s.rank[qi], want)
		}
	}
	return nil
}
