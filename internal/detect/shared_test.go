package detect

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"sforder/internal/sched"
)

// The shared-state pages abbreviate a per-slot access history: slots with
// the same history point at one state, and Algorithm 1 runs once per state
// a flush touches. These tests hold the abbreviation against the thing it
// abbreviates — a map from address to that address's own record, updated
// one access at a time exactly as the paper states the algorithm.

// refLoc is one location's history in the per-slot reference.
type refLoc struct {
	writer, reader *sched.Strand
	readers        []*sched.Strand
	pairs          map[int]lrPair
}

// refHistory is the reference: Algorithm 1 per access, no sharing, no
// batching of checks. It buffers a strand's accesses — with the fast path
// under the same subsumption rule as StrandBuffer, stated on a map — and
// applies them in program order when told to.
type bufEntry struct {
	addr uint64
	kind AccessKind
}

type refHistory struct {
	reach  Reachability
	policy ReaderPolicy
	leftOf func(a, b *sched.Strand) bool
	dedup  bool
	locs   map[uint64]*refLoc
	races  uint64
	racy   map[uint64]bool
	// Per strand: the kinds already kept per address, and the kept
	// accesses not yet applied.
	seen    map[*sched.Strand]map[uint64]uint8
	pending map[*sched.Strand][]bufEntry
}

func newRefHistory(opts Options) *refHistory {
	return &refHistory{
		reach: opts.Reach, policy: opts.Policy, leftOf: opts.LeftOf, dedup: opts.FastPath,
		locs: map[uint64]*refLoc{}, racy: map[uint64]bool{},
		seen: map[*sched.Strand]map[uint64]uint8{}, pending: map[*sched.Strand][]bufEntry{},
	}
}

func (r *refHistory) access(s *sched.Strand, addr uint64, kind AccessKind) {
	if r.seen[s] == nil {
		r.seen[s] = map[uint64]uint8{}
	}
	m := r.seen[s][addr]
	if r.dedup && (m&(1<<AccessWrite) != 0 || (kind == AccessRead && m != 0)) {
		return
	}
	r.seen[s][addr] = m | 1<<kind
	r.pending[s] = append(r.pending[s], bufEntry{addr, kind})
}

func (r *refHistory) report(addr uint64) {
	r.races++
	r.racy[addr] = true
}

// flush applies s's pending accesses, one location at a time.
func (r *refHistory) flush(s *sched.Strand) {
	for _, e := range r.pending[s] {
		l := r.locs[e.addr]
		if l == nil {
			l = &refLoc{}
			r.locs[e.addr] = l
		}
		if w := l.writer; w != nil && w != s && !r.reach.Precedes(w, s) {
			r.report(e.addr)
		}
		if e.kind == AccessRead {
			if l.reader == s {
				continue
			}
			if r.policy == ReadersAll {
				l.readers = append(l.readers, s)
			} else {
				r.updateLR(l, s)
			}
			l.reader = s
			continue
		}
		for _, rd := range l.readers {
			if rd != s && !r.reach.Precedes(rd, s) {
				r.report(e.addr)
			}
		}
		for _, p := range l.pairs {
			if p.l != s && !r.reach.Precedes(p.l, s) {
				r.report(e.addr)
			}
			if p.r != p.l && p.r != s && !r.reach.Precedes(p.r, s) {
				r.report(e.addr)
			}
		}
		*l = refLoc{writer: s}
	}
	r.pending[s] = r.pending[s][:0]
}

func (r *refHistory) updateLR(l *refLoc, s *sched.Strand) {
	if l.pairs == nil {
		l.pairs = map[int]lrPair{}
	}
	p, ok := l.pairs[s.Fut.ID]
	if !ok {
		l.pairs[s.Fut.ID] = lrPair{l: s, r: s}
		return
	}
	if p.l != s && (r.reach.Precedes(p.l, s) || r.leftOf(s, p.l)) {
		p.l = s
	}
	if p.r != s && (r.reach.Precedes(p.r, s) || r.leftOf(p.r, s)) {
		p.r = s
	}
	l.pairs[s.Fut.ID] = p
}

func (r *refHistory) close(s *sched.Strand) {
	r.flush(s)
	delete(r.seen, s)
	delete(r.pending, s)
}

// fixedRelation is an arbitrary but fixed order on strands: whether u
// precedes v, and whether a is left of b, is a hash of the two IDs. It
// is not a dag's reachability — it need not be: Algorithm 1 only ever
// asks, and the history and the reference must agree whatever the answers.
type fixedRelation struct{ seed uint64 }

func (f fixedRelation) mix(a, b, salt uint64) uint64 {
	x := (a+1)*0x9e3779b97f4a7c15 ^ (b+1)*0xc2b2ae3d27d4eb4f ^ (f.seed+salt)*0x165667b19e3779f9
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	return x ^ x>>32
}

func (f fixedRelation) Precedes(u, v *sched.Strand) bool {
	return u == v || f.mix(u.ID, v.ID, 1)%4 != 0 // three pairs in four ordered
}

func (f fixedRelation) LeftOf(a, b *sched.Strand) bool { return f.mix(a.ID, b.ID, 2)%2 == 0 }

// checkPages verifies every page's bookkeeping and compares each
// location's history with the reference's.
func checkPages(t *testing.T, h *History, ref *refHistory, step string) {
	t.Helper()
	touched := 0
	h.tbl.forEachPage(func(p *page) {
		slots, live := 0, map[uint16]bool{}
		for i := range p.states {
			st := &p.states[i]
			if st.hit != 0 || st.to != noState {
				t.Fatalf("%s: page %#x state %d keeps apply scratch: hit %d to %d", step, p.num, i, st.hit, st.to)
			}
			if st.n > 0 {
				live[uint16(i)] = true
				slots += int(st.n)
			}
		}
		if slots != pageSize {
			t.Fatalf("%s: page %#x: the live states own %d slots of %d", step, p.num, slots, pageSize)
		}
		for i := p.free; i != noState; i = p.states[i].link {
			if st := &p.states[i]; st.n != 0 || live[i] || st.writer != nil || len(st.readers) != 0 || st.pairs != nil {
				t.Fatalf("%s: page %#x: state %d on the free list is not dead: %+v", step, p.num, i, *st)
			}
		}
		owned := map[uint16]int{}
		for slot, b := range p.idx {
			i := uint16(b)
			if !live[i] {
				t.Fatalf("%s: page %#x slot %d points at dead state %d", step, p.num, slot, i)
			}
			owned[i]++
			st, addr := &p.states[i], p.num<<pageBits|uint64(slot)
			l := ref.locs[addr]
			if l == nil {
				l = &refLoc{}
			} else {
				touched++
			}
			if st.writer != l.writer || st.reader != l.reader || !slices.Equal(st.readers, l.readers) || !maps.Equal(st.pairs, l.pairs) {
				t.Fatalf("%s: %#x: history has writer %v reader %v readers %v pairs %v, the per-slot reference %v %v %v %v",
					step, addr, st.writer, st.reader, st.readers, st.pairs, l.writer, l.reader, l.readers, l.pairs)
			}
		}
		for i, n := range owned {
			if int(p.states[i].n) != n {
				t.Fatalf("%s: page %#x state %d counts %d slots, %d point at it", step, p.num, i, p.states[i].n, n)
			}
		}
	})
	if touched != len(ref.locs) {
		t.Fatalf("%s: the history's pages hold %d of the reference's %d locations", step, touched, len(ref.locs))
	}
	if h.RaceCount() != ref.races {
		t.Fatalf("%s: RaceCount %d, the per-slot reference reported %d", step, h.RaceCount(), ref.races)
	}
	want := make([]uint64, 0, len(ref.racy))
	for addr := range ref.racy {
		want = append(want, addr)
	}
	slices.Sort(want)
	if got := h.RacyAddrs(); !slices.Equal(got, want) {
		t.Fatalf("%s: racy addresses %v, the per-slot reference %v", step, got, want)
	}
}

// TestSharedStatesMatchPerSlotReference drives a History and the per-slot
// reference with the same random strands — several open at a time, each
// making contiguous ranges, sub-ranges of earlier ranges, ranges across a
// page boundary, scattered single slots and read-then-write of one slot,
// long enough to flush early — under a fixed arbitrary order, both reader
// policies, on the fast and on the locked path, and compares the race
// count, the racy set and every location's (writer, readers) after every
// flush.
func TestSharedStatesMatchPerSlotReference(t *testing.T) {
	const space = 5 * pageSize // addresses, from 40 below a page boundary up
	for _, policy := range []ReaderPolicy{ReadersAll, ReadersLR} {
		for _, fast := range []bool{true, false} {
			for seed := int64(0); seed < 5; seed++ {
				name := fmt.Sprintf("%v fast=%v seed %d", policy, fast, seed)
				rel := fixedRelation{uint64(seed)}
				opts := Options{Reach: rel, Policy: policy, LeftOf: rel.LeftOf, FastPath: fast}
				h, ref := NewHistory(opts), newRefHistory(opts)
				rng := rand.New(rand.NewSource(seed))
				futs := []*sched.FutureTask{{ID: 0}, {ID: 1}, {ID: 2}}
				var open []*sched.Strand
				var ranges [][2]uint64 // earlier ranges, for sub-ranges
				nextID, flushes := uint64(0), 0
				access := func(s *sched.Strand, addr uint64, kind AccessKind) {
					if kind == AccessWrite {
						h.Write(s, addr)
					} else {
						h.Read(s, addr)
					}
					ref.access(s, addr, kind)
					// The locked path applies at once; the fast path when
					// the buffer has just emptied itself at batchCap.
					if !fast || s.Buf.Pending() == 0 {
						ref.flush(s)
						flushes++
						if fast || rng.Intn(1024) == 0 {
							checkPages(t, h, ref, name)
						}
					}
				}
				for step := 0; step < 400; step++ {
					if len(open) < 4 && (len(open) == 0 || rng.Intn(3) == 0) {
						open = append(open, &sched.Strand{ID: nextID, Fut: futs[rng.Intn(len(futs))]})
						nextID++
					}
					k := rng.Intn(len(open))
					s := open[k]
					if rng.Intn(8) == 0 {
						h.StrandClose(s)
						ref.close(s)
						flushes++
						checkPages(t, h, ref, name)
						open = slices.Delete(open, k, k+1)
						continue
					}
					kind := AccessKind(rng.Intn(2))
					from := pageSize - 40 + uint64(rng.Intn(space))
					switch shape := rng.Intn(6); {
					case shape == 0: // scattered single slots
						for n := 1 + rng.Intn(12); n > 0; n-- {
							access(s, pageSize-40+uint64(rng.Intn(space)), kind)
						}
					case shape == 1: // read-then-write, slot by slot
						for to := from + 1 + uint64(rng.Intn(24)); from < to; from++ {
							access(s, from, AccessRead)
							access(s, from, AccessWrite)
						}
					case shape == 2 && len(ranges) > 0: // sub-range of an earlier range
						r := ranges[rng.Intn(len(ranges))]
						lo := r[0] + uint64(rng.Intn(int(r[1]-r[0])))
						for hi := lo + 1 + uint64(rng.Intn(int(r[1]-lo))); lo < hi; lo++ {
							access(s, lo, kind)
						}
					default: // contiguous range, up to three pages: crosses boundaries and batchCap
						to := from + 1 + uint64(rng.Intn(3*pageSize))
						ranges = append(ranges, [2]uint64{from, to})
						for a := from; a < to; a++ {
							access(s, a, kind)
						}
					}
				}
				for _, s := range open {
					h.StrandClose(s)
					ref.close(s)
					checkPages(t, h, ref, name)
				}
				if flushes < 40 || h.RaceCount() == 0 {
					t.Fatalf("%s: %d flushes, %d races: the run exercises too little", name, flushes, h.RaceCount())
				}
			}
		}
	}
}
