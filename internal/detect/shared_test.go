package detect

import (
	"cmp"
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"sforder/internal/sched"
)

// The shared-state pages abbreviate a per-slot access history: slots with
// the same history point at one state, and Algorithm 1 runs once per state
// a flush touches. These tests hold the abbreviation against the thing it
// abbreviates — a map from address to that address's own record, updated
// one access at a time exactly as the paper states the algorithm, and
// reporting each race with the same record.

// refLoc is one location's history in the per-slot reference. Under
// ReadersLR it keeps its pairs in a map by future ID, not in the flat
// list a state keeps them in.
type refLoc struct {
	writer, reader *sched.Strand
	readers        []*sched.Strand
	pairs          map[int]refPair
}

// refPair is the reference's leftmost and rightmost reader of one future.
type refPair struct {
	l, r *sched.Strand
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
	dedup  bool // the strand buffer's subsumption rule (FastPath)
	locs   map[uint64]*refLoc
	races  uint64
	racy   map[uint64]bool
	// How often each race was reported, and what the history should
	// retain of them: at most maxRaces records, one per address if byAddr.
	reports  map[Race]int
	maxRaces int
	byAddr   bool
	// Per strand: the kinds already kept per address, and the kept
	// accesses not yet applied.
	seen    map[*sched.Strand]map[uint64]uint8
	pending map[*sched.Strand][]bufEntry
}

func newRefHistory(opts Options) *refHistory {
	return &refHistory{
		reach: opts.Reach, policy: opts.Policy, leftOf: opts.LeftOf, dedup: opts.FastPath,
		reports: map[Race]int{}, maxRaces: cmp.Or(opts.MaxRaces, 256), byAddr: opts.DedupByAddr,
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

func (r *refHistory) report(addr uint64, prev *sched.Strand, prevKind AccessKind, cur *sched.Strand, curKind AccessKind) {
	r.races++
	r.racy[addr] = true
	r.reports[Race{Addr: addr, PrevStrand: prev.ID, CurStrand: cur.ID,
		PrevFuture: prev.Fut.ID, CurFuture: cur.Fut.ID, Prev: prevKind, Cur: curKind}]++
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
			r.report(e.addr, w, AccessWrite, s, e.kind)
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
				r.report(e.addr, rd, AccessRead, s, AccessWrite)
			}
		}
		for _, p := range l.pairs {
			if p.l != s && !r.reach.Precedes(p.l, s) {
				r.report(e.addr, p.l, AccessRead, s, AccessWrite)
			}
			if p.r != p.l && p.r != s && !r.reach.Precedes(p.r, s) {
				r.report(e.addr, p.r, AccessRead, s, AccessWrite)
			}
		}
		*l = refLoc{writer: s}
	}
	r.pending[s] = r.pending[s][:0]
}

func (r *refHistory) updateLR(l *refLoc, s *sched.Strand) {
	if l.pairs == nil {
		l.pairs = map[int]refPair{}
	}
	p, ok := l.pairs[s.Fut.ID]
	if !ok {
		l.pairs[s.Fut.ID] = refPair{l: s, r: s}
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

// checkPages verifies every page's bookkeeping — no two states, live or
// dead, share any of a reader array — and compares each location's
// history, the race count, the racy set and the retained records with the
// reference's.
func checkPages(t *testing.T, h *History, ref *refHistory, step string) {
	t.Helper()
	touched := 0
	var arrays [][2]uintptr // every state's reader array, [first, end)
	h.tbl.forEachPage(func(p *page) {
		slots, live := 0, map[uint16]bool{}
		p.forEachState(func(i uint16, st *state) {
			if st.hit != 0 || st.to != noState {
				t.Fatalf("%s: page %#x state %d keeps apply scratch: hit %d to %d", step, p.num, i, st.hit, st.to)
			}
			if st.rn > st.rc || (st.rp == nil) != (st.rc == 0) {
				t.Fatalf("%s: page %#x state %d has %d readers in room for %d at %p", step, p.num, i, st.rn, st.rc, st.rp)
			}
			if st.rc > 0 {
				first := uintptr(unsafe.Pointer(st.rp))
				arrays = append(arrays, [2]uintptr{first, first + uintptr(st.rc)*unsafe.Sizeof(*st.rp)})
			}
			if st.n > 0 {
				live[i] = true
				slots += int(st.n)
			}
		})
		if slots != pageSize {
			t.Fatalf("%s: page %#x: the live states own %d slots of %d", step, p.num, slots, pageSize)
		}
		if zeroIndex != (slotIndex{}) {
			t.Fatalf("%s: page %#x: the shared zero index was written", step, p.num)
		}
		for i := p.free; i != noState; i = p.at(i).link {
			if st := p.at(i); st.n != 0 || live[i] || st.writer != nil || st.rn != 0 {
				t.Fatalf("%s: page %#x: state %d on the free list is not dead: %+v", step, p.num, i, *st)
			}
		}
		owned := map[uint16]int{}
		for slot := range pageSize {
			i := p.stateOf(slot)
			if !live[i] {
				t.Fatalf("%s: page %#x slot %d points at dead state %d", step, p.num, slot, i)
			}
			owned[i]++
			st, addr := p.at(i), p.num<<pageBits|uint64(slot)
			l := ref.locs[addr]
			if l == nil {
				l = &refLoc{}
			} else {
				touched++
			}
			// Under ReadersAll the most recent reader is the last one kept;
			// ReadersLR's pairs do not say which one was.
			readers, pairs, last := st.readers(), map[int]refPair(nil), l.reader
			if ref.policy == ReadersAll {
				last = nil
				if n := len(readers); n > 0 {
					last = readers[n-1]
				}
			} else {
				readers, pairs = nil, lrPairs(t, st.readers(), step, addr)
			}
			if st.writer != l.writer || last != l.reader || !slices.Equal(readers, l.readers) || !maps.Equal(pairs, l.pairs) {
				t.Fatalf("%s: %#x: history has writer %v readers %v, the per-slot reference %v %v %v %v",
					step, addr, st.writer, st.readers(), l.writer, l.reader, l.readers, l.pairs)
			}
		}
		for i, n := range owned {
			if int(p.at(i).n) != n {
				t.Fatalf("%s: page %#x state %d counts %d slots, %d point at it", step, p.num, i, p.at(i).n, n)
			}
		}
	})
	slices.SortFunc(arrays, func(a, b [2]uintptr) int { return cmp.Compare(a[0], b[0]) })
	for k := 1; k < len(arrays); k++ {
		if arrays[k][0] < arrays[k-1][1] {
			t.Fatalf("%s: two states share the reader array at %#x", step, arrays[k][0])
		}
	}
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
	checkRetained(t, h.Races(), ref, step)
}

// lrPairs converts a state's flat ReadersLR list to the reference's map,
// failing unless it is whole pairs, both of one future, one a future.
func lrPairs(t *testing.T, flat []*sched.Strand, step string, addr uint64) map[int]refPair {
	t.Helper()
	if len(flat)%2 != 0 {
		t.Fatalf("%s: %#x: an odd ReadersLR list %v", step, addr, flat)
	}
	var pairs map[int]refPair
	for k := 0; k < len(flat); k += 2 {
		l, r := flat[k], flat[k+1]
		if _, dup := pairs[l.Fut.ID]; dup || l.Fut.ID != r.Fut.ID {
			t.Fatalf("%s: %#x: ReadersLR list %v: pair %d is not the one pair of its future", step, addr, flat, k/2)
		}
		if pairs == nil {
			pairs = map[int]refPair{}
		}
		pairs[l.Fut.ID] = refPair{l: l, r: r}
	}
	return pairs
}

// TestLRRepeatReadKeepsPairs: a state keeps no most recent reader, so a
// ReadersLR strand's repeat read of a location decides again — and must
// leave its future's pair exactly as its first read left it, splitting no
// state, whether the strand is the pair's leftmost or rightmost reader or
// lies strictly between them. Three parallel strands of one future, left
// of each other in ID order, read page 0: the outer two slots 0–63, the
// middle one 0–31, each then reading more than batchCap addresses
// elsewhere so that an early drain applies its reads while it is still
// open; one of them then reads slots 0–31 again. On the locked path the
// repeat reaches the page, a slot at a time; on the fast path the strand
// buffer absorbs it, across the drain; applied as a page (ApplyPage, as
// a replay shard applies a block) it meets a state that slots 32–63 share
// with 0–31 — as the middle strand's first read did — so a copy it need
// not make would show.
func TestLRRepeatReadKeepsPairs(t *testing.T) {
	fut := &sched.FutureTask{ID: 0}
	left, mid, right := &sched.Strand{ID: 1, Fut: fut}, &sched.Strand{ID: 2, Fut: fut}, &sched.Strand{ID: 3, Fut: fut}
	leftOf := func(a, b *sched.Strand) bool { return a.ID < b.ID }
	for _, repeat := range []*sched.Strand{left, right, mid} {
		for _, path := range []string{"locked", "fast", "page"} {
			name := fmt.Sprintf("strand %d, %s", repeat.ID, path)
			h := NewHistory(Options{Reach: parallelReach{}, Policy: ReadersLR, LeftOf: leftOf, FastPath: path == "fast"})
			read := func(s *sched.Strand, from, to uint64) {
				if path == "page" {
					var set SlotSet
					for a := from; a < to; a++ {
						set[a&pageMask>>6] |= 1 << (a & 63)
					}
					h.ApplyPage(s, from>>pageBits, &set, &SlotSet{})
					return
				}
				for a := from; a < to; a++ {
					h.Read(s, a)
				}
			}
			for _, s := range []*sched.Strand{left, right, mid} {
				to := uint64(64)
				if s == mid {
					to = 32
				}
				read(s, 0, to)
				for a := uint64(0); a < 1100; a += pageSize {
					read(s, 1<<16+a, 1<<16+min(a+pageSize, 1100))
				}
				if path == "fast" && s.Buf.Pending() >= 1100 {
					t.Fatalf("%s: %d reads pending, no early drain", name, s.Buf.Pending())
				}
			}
			p := h.tbl.pageFor(0)
			// pairs checks slots 0–63 and returns the page's live states.
			pairs := func(when string) (live int) {
				t.Helper()
				p.forEachState(func(_ uint16, st *state) {
					if st.n > 0 {
						live++
					}
				})
				for slot := range 64 {
					if rs := p.at(p.stateOf(slot)).readers(); !slices.Equal(rs, []*sched.Strand{left, right}) {
						t.Fatalf("%s, %s: slot %d keeps the pairs %v, want (1, 3)", name, when, slot, rs)
					}
				}
				return live
			}
			before := pairs("after the first reads")
			if path == "page" && before != 2 {
				t.Fatalf("%s: page 0 has %d live states after the first reads, want 2: the middle strand's read split one", name, before)
			}
			read(repeat, 0, 32)
			for _, s := range []*sched.Strand{left, right, mid} {
				h.StrandClose(s)
			}
			if after := pairs("after the repeat"); after != before {
				t.Fatalf("%s: page 0 has %d live states after the repeat, %d before", name, after, before)
			}
		}
	}
}

// checkRetained compares the history's retained records with the
// reference's reports. The history reports a state's slots together and
// the reference slot by slot, so the orders differ: while every report is
// retained the two are one multiset; once the cap or DedupByAddr leaves
// some out, the history keeps as many as the rules allow, each one of the
// reference's reports, and under DedupByAddr one an address.
func checkRetained(t *testing.T, got []Race, ref *refHistory, step string) {
	t.Helper()
	retainable := int(ref.races)
	if ref.byAddr {
		retainable = len(ref.racy)
	}
	if len(got) != min(ref.maxRaces, retainable) {
		t.Fatalf("%s: %d records retained, want %d: cap %d, %d reports on %d addresses, by address %v",
			step, len(got), min(ref.maxRaces, retainable), ref.maxRaces, ref.races, len(ref.racy), ref.byAddr)
	}
	kept := map[Race]int{}
	addrs := map[uint64]bool{}
	for _, r := range got {
		if kept[r]++; kept[r] > ref.reports[r] {
			t.Fatalf("%s: retained %v %d times, the per-slot reference reported it %d", step, r, kept[r], ref.reports[r])
		}
		if ref.byAddr && addrs[r.Addr] {
			t.Fatalf("%s: two records on %#x under DedupByAddr", step, r.Addr)
		}
		addrs[r.Addr] = true
	}
}

// TestSharedStatesMatchPerSlotReference drives a History and the per-slot
// reference with the same random strands — several open at a time, each
// making contiguous ranges, sub-ranges of earlier ranges, ranges across a
// page boundary, scattered single slots and read-then-write of one slot,
// long enough to flush early — under a fixed arbitrary order, both reader
// policies, on the fast and on the locked path, and compares the race
// count, the racy set, the retained records and every location's (writer,
// readers) after every flush. The cap on retained records is 37, past a
// chunk and reached in every run, and odd seeds retain one record an
// address.
func TestSharedStatesMatchPerSlotReference(t *testing.T) {
	const space = 5 * pageSize // addresses, from 40 below a page boundary up
	for _, policy := range []ReaderPolicy{ReadersAll, ReadersLR} {
		for _, fast := range []bool{true, false} {
			for seed := int64(0); seed < 5; seed++ {
				name := fmt.Sprintf("%v fast=%v seed %d", policy, fast, seed)
				rel := fixedRelation{uint64(seed)}
				opts := Options{Reach: rel, Policy: policy, LeftOf: rel.LeftOf, FastPath: fast,
					MaxRaces: 37, DedupByAddr: seed%2 == 1}
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
				if flushes < 40 || len(ref.racy) <= opts.MaxRaces {
					t.Fatalf("%s: %d flushes, races on %d addresses: the run exercises too little", name, flushes, len(ref.racy))
				}
			}
		}
	}
}

// TestWordHelpers checks the kernel's word arithmetic exhaustively: the
// byte mask of every byte of slots, which slots of an idx word one mask
// says point at one state, and which bytes of a word equal a state index.
func TestWordHelpers(t *testing.T) {
	x := uint64(0x0707_0003_0700_0307) // slots 0..7 of a word: states 7 3 0 7 3 0 7 7
	rng := rand.New(rand.NewSource(1))
	for _, y := range []uint64{x, 0, ^uint64(0), 0x0101_0101_0101_0101, 0x8080_7f7f_0001_ff00, rng.Uint64(), rng.Uint64()} {
		for i := uint64(0); i < 256; i++ {
			var want uint64
			for b := range 8 {
				if y>>(8*b)&0xff == i {
					want |= 1 << b
				}
			}
			if got := sameBytes(y, i); got != want {
				t.Fatalf("sameBytes(%#x, %d) = %#x, want %#x", y, i, got, want)
			}
		}
	}
	for m := uint64(0); m < 256; m++ {
		var want uint64
		for b := range 8 {
			if m>>b&1 != 0 {
				want |= 0xff << (8 * b)
			}
		}
		if got := byteMask[m]; got != want {
			t.Fatalf("byteMask[%#x] = %#x, want %#x", m, got, want)
		}
		if m == 0 {
			continue
		}
		first := x >> (8 * bits.TrailingZeros64(m)) & 0xff
		wantOK := bits.OnesCount64(m) > 1 // a lone slot is walked, not compared
		for b := range 8 {
			if m>>b&1 != 0 && x>>(8*b)&0xff != first {
				wantOK = false
			}
		}
		if i, ok := uniform(x, m); ok != wantOK || ok && i != first {
			t.Fatalf("uniform(%#x, %#x) = %d, %v; want %d, %v", x, m, i, ok, first, wantOK)
		}
	}
	p := page{idx: new(slotIndex)}
	p.idx[3] = x
	for b, want := range []uint16{7, 3, 0, 7, 3, 0, 7, 7} {
		if got := p.stateOf(3*8 + b); got != want {
			t.Errorf("stateOf(%d) = %d, want %d", 3*8+b, got, want)
		}
	}
	// idx word 3 is byte 3 of SlotSet word 0: slots 24..31.
	for _, tc := range []struct {
		word, hit uint64
		i         uint16
	}{{^uint64(0), 0xc9 << 24, 7}, {^uint64(0), 0x12 << 24, 3}, {0xf0 << 24, 0xc0 << 24, 7}, {1<<24 | 1, 1 << 24, 7}, {0xff, 0xff, 0}} {
		if got := p.hits(0, tc.word, tc.i); got != tc.hit {
			t.Errorf("hits(0, %#x, %d) = %#x, want %#x", tc.word, tc.i, got, tc.hit)
		}
	}
}

// FuzzApplyPage holds the page kernel — group, split, move and point, which
// take a page's slots eight and 64 at a time — against the per-slot
// reference on sets of every shape: whole words, runs that start and end
// inside a byte, strides that put two or three states in one byte, and raw
// bit patterns. Each input is a sequence of ApplyPage calls by six strands
// of three futures on two pages, under both reader policies and an
// arbitrary fixed order; every page, location and retained record is
// compared after every call. The cap on retained records is 37, so a long
// input crosses a chunk boundary and reaches it; a first byte of 128 or
// more retains one record an address.
func FuzzApplyPage(f *testing.F) {
	f.Add([]byte{0, 1, 0, 255, 0, 9, 1, 0, 255, 1, 2, 1, 0, 255, 0})
	f.Add([]byte{3, 2, 5, 2, 40, 0, 10, 1, 3, 0, 1, 60, 130, 2, 17, 3, 90, 0, 0, 1, 0, 255, 1})
	f.Add([]byte{7, 3, 0x0f, 0xf0, 0xff, 0, 0x55, 0xaa, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 255, 0, 12, 2, 0, 1, 200, 1, 0, 255, 0})
	f.Add([]byte{1, 1, 4, 7, 1, 0, 2, 1, 8, 33, 0, 1, 1, 20, 50, 0, 3, 1, 6, 3, 30, 2, 9, 0, 1, 0, 255, 1})
	// Six strands writing the whole of page 0 in turn, three of them
	// reading a run first: 880 races on 256 addresses at seed 3, and 860
	// at 168, which retains one record an address.
	f.Add([]byte{3, 0, 0, 1, 0, 255, 1, 1, 0, 40, 1, 0, 255, 2, 2, 0, 2, 50, 1, 0, 255, 3, 0, 1, 0, 255, 4, 3, 0, 1, 0, 255, 5, 0, 1, 0, 255})
	f.Add([]byte{168, 0, 0, 1, 0, 255, 1, 1, 0, 40, 1, 0, 255, 2, 2, 0, 2, 50, 1, 0, 255, 3, 0, 1, 0, 255, 4, 3, 0, 1, 0, 255, 5, 0, 1, 0, 255})
	// Copy-on-split of ReadersLR's flat pair list: strands of futures 0, 1
	// and 2 read slots 0–63, one state with three pairs; a second strand
	// of future 0 reads 10–29, a copy whose first pair changes while the
	// rest keeps the old one; a strand of future 1 writes 0–40, over both;
	// a strand of future 2 reads the page.
	f.Add([]byte{5, 0, 1, 0, 63, 0, 1, 1, 0, 63, 0, 2, 1, 0, 63, 0, 3, 1, 10, 19, 0, 4, 0, 1, 0, 40, 5, 1, 0, 255, 0})
	// Page 0 kept on the shared zero index through whole-page writes and
	// reads, a whole-page read and write in one call among them, then split
	// by a read of slots 10–50, written whole, and split again by a strided
	// write; page 1 read whole throughout, never split.
	for _, seed := range []byte{0, 3} {
		f.Add([]byte{seed, 0, 0, 1, 0, 255, 9, 1, 0, 255, 0, 1, 1, 0, 255, 0, 2, 0, 1, 0, 255,
			3, 1, 0, 255, 1, 0, 255, 12, 1, 0, 255, 0, 4, 1, 10, 40, 0, 5, 0, 1, 0, 255, 0, 0, 2, 3, 4, 20})
	}
	f.Add(bitSplits())
	f.Add(readerGrowth(0))
	f.Add(readerGrowth(6))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		rel := fixedRelation{uint64(data[0])}
		futs := []*sched.FutureTask{{ID: 0}, {ID: 1}, {ID: 2}}
		strands := make([]*sched.Strand, 6)
		for i := range strands {
			strands[i] = &sched.Strand{ID: uint64(i), Fut: futs[i%len(futs)]}
		}
		for _, policy := range []ReaderPolicy{ReadersAll, ReadersLR} {
			opts := Options{Reach: rel, Policy: policy, LeftOf: rel.LeftOf, MaxRaces: 37, DedupByAddr: data[0] >= 128}
			h, ref := NewHistory(opts), newRefHistory(opts)
			for rest := data[1:]; len(rest) > 0; {
				op := rest[0]
				var reads, writes SlotSet
				reads, rest = decodeSlotSet(rest[1:])
				writes, rest = decodeSlotSet(rest)
				s, num := strands[int(op&7)%len(strands)], uint64(op>>3&1)
				h.ApplyPage(s, num, &reads, &writes)
				for kind, set := range [2]*SlotSet{&reads, &writes} {
					for slot := range pageSize {
						if set[slot>>6]>>(slot&63)&1 != 0 {
							ref.access(s, num<<pageBits|uint64(slot), AccessKind(kind))
						}
					}
				}
				ref.flush(s)
				checkPages(t, h, ref, policy.String())
			}
		}
	})
}

// bitSplits is a FuzzApplyPage input whose page outgrows the chunks of 8,
// 16 and 64 states: strands 0 to 5, then 0 and 1 again, read the slots of
// page 0 whose index has bit b set, b = 0 to 7, each read splitting every
// state it does not leave alone in two — 252 states under ReadersAll, 105
// under ReadersLR — and strand 2 then writes the whole page, which frees
// all but one.
func bitSplits() []byte {
	data := []byte{0}
	for b := range 8 {
		data = append(data, byte(b), 3) // strand b%6 on page 0, raw reads
		for slot := 0; slot < pageSize; slot += 8 {
			var m byte
			for k := range 8 {
				if (slot+k)>>b&1 != 0 {
					m |= 1 << k
				}
			}
			data = append(data, m)
		}
		data = append(data, 0) // no writes
	}
	return append(data, 2, 0, 1, 0, 255)
}

// readerGrowth is a FuzzApplyPage input whose reader lists grow in place
// through capacities 1, 2, 4 and 8 under ReadersAll, and 2, 4 and 8 under
// ReadersLR (a pair of each of three futures), and split while shared at
// each: strand 0 writes page 0, then strands 1 to 5 each read the whole
// page, and after read k the next strand reads the first 256>>k slots,
// which splits the state the whole-page read left.
func readerGrowth(seed byte) []byte {
	data := []byte{seed, 0, 0, 1, 0, 255}
	for k := 1; k <= 5; k++ {
		last := pageSize>>k - 1
		data = append(data, byte(k), 1, 0, 255, 0)              // strand k reads the page
		data = append(data, byte((k+1)%6), 1, 0, byte(last), 0) // the next its first 256>>k slots
	}
	return data
}

// decodeSlotSet reads one set off data: a form byte and its operands. A
// form is empty, a run (start, length), a stride (start, step 1–8, count)
// or raw words (32 bytes); a short input ends the set where it runs out.
func decodeSlotSet(data []byte) (set SlotSet, rest []byte) {
	next := func() (int, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := int(data[0])
		data = data[1:]
		return b, true
	}
	add := func(slot int) { set[slot>>6] |= 1 << (slot & 63) }
	form, ok := next()
	if !ok {
		return set, data
	}
	switch form % 4 {
	case 1:
		lo, _ := next()
		n, _ := next()
		for slot := lo; slot <= min(lo+n, pageSize-1); slot++ {
			add(slot)
		}
	case 2:
		lo, _ := next()
		step, _ := next()
		n, _ := next()
		for slot := lo; n >= 0 && slot < pageSize; slot, n = slot+1+step%8, n-1 {
			add(slot)
		}
	case 3:
		for slot := 0; slot < pageSize; slot += 8 {
			b, ok := next()
			if !ok {
				break
			}
			set[slot>>6] |= uint64(b) << (slot & 63)
		}
	}
	return set, data
}

// slotRun returns the set of slots lo to hi-1.
func slotRun(lo, hi int) *SlotSet {
	var set SlotSet
	for slot := lo; slot < hi; slot++ {
		set[slot>>6] |= 1 << (slot & 63)
	}
	return &set
}

// TestSplitCopyDoesNotAlias: a state's reader list is a pointer, a length
// and a capacity, and a split's copy must be a list of its own. Strands a,
// b and c read the whole page, one state with a list of three in room for
// four; d reads half of it, which splits the state. A write into the
// copy's list, and an append to the source's in its spare room, each
// leave the other list as it was.
func TestSplitCopyDoesNotAlias(t *testing.T) {
	h := NewHistory(Options{Reach: serialReach{}})
	a, b, c, d, e, x := newStrand(1), newStrand(2), newStrand(3), newStrand(4), newStrand(5), newStrand(6)
	for _, s := range []*sched.Strand{a, b, c} {
		h.ApplyPage(s, 0, slotRun(0, pageSize), &SlotSet{})
	}
	h.ApplyPage(d, 0, slotRun(0, pageSize/2), &SlotSet{})
	p := h.tbl.pageFor(0)
	cp, src := p.at(p.stateOf(0)), p.at(p.stateOf(pageSize-1))
	if cp == src || src.rc != 4 {
		t.Fatalf("d's read left one state or a source in room for %d, want a split of a list in room for 4", src.rc)
	}
	check := func(when string, st *state, want ...*sched.Strand) {
		t.Helper()
		if got := st.readers(); !slices.Equal(got, want) {
			t.Fatalf("%s: readers %v, want %v", when, got, want)
		}
	}
	check("after the split, the copy", cp, a, b, c, d)
	check("after the split, the source", src, a, b, c)
	cp.readers()[0] = x
	check("after a write into the copy, the source", src, a, b, c)
	h.ApplyPage(e, 0, slotRun(pageSize/2, pageSize), &SlotSet{}) // in place: src owns those slots alone
	if p.at(p.stateOf(pageSize-1)) != src || src.rc != 4 {
		t.Fatalf("e's read moved the source or grew its list to room for %d", src.rc)
	}
	check("after an append to the source, the copy", cp, x, b, c, d)
	check("after an append to the source, the source", src, a, b, c, e)
}

// TestWriteAndReleaseKeepReaderArrays: a write empties a state's reader
// list but keeps its array, both for the state the written slots move to
// and for one it frees, and the next state handed out — a split's copy,
// taking the freed one — fills that array instead of allocating.
func TestWriteAndReleaseKeepReaderArrays(t *testing.T) {
	h := NewHistory(Options{Reach: serialReach{}})
	a, b, c, w, e := newStrand(1), newStrand(2), newStrand(3), newStrand(4), newStrand(5)
	h.ApplyPage(a, 0, slotRun(0, pageSize), &SlotSet{})
	h.ApplyPage(b, 0, slotRun(0, pageSize/2), &SlotSet{})
	h.ApplyPage(c, 0, slotRun(0, pageSize/2), &SlotSet{})
	p := h.tbl.pageFor(0)
	low, high := p.stateOf(0), p.stateOf(pageSize-1) // [a b c] and [a]
	lowArray, highArray := p.at(low).rp, p.at(high).rp
	lowCap, highCap := p.at(low).rc, p.at(high).rc
	if low == high || p.at(low).rn != 3 || p.at(high).rn != 1 {
		t.Fatalf("the reads left states %d and %d with %d and %d readers, want two states with 3 and 1",
			low, high, p.at(low).rn, p.at(high).rn)
	}

	h.ApplyPage(w, 0, &SlotSet{}, slotRun(0, pageSize))
	st := p.at(low)
	if p.stateOf(0) != low || p.stateOf(pageSize-1) != low || st.writer != w || st.rn != 0 || st.rp != lowArray || st.rc != lowCap {
		t.Fatalf("the write left the page on state %d, writer %v, %d readers in room for %d at %p; want state %d, %v, none in room for %d at %p",
			p.stateOf(0), st.writer, st.rn, st.rc, st.rp, low, w, lowCap, lowArray)
	}
	dead := p.at(high)
	if p.free != high || dead.n != 0 || dead.writer != nil || dead.rn != 0 || dead.rp != highArray || dead.rc != highCap {
		t.Fatalf("the write freed state %d: %d slots, writer %v, %d readers in room for %d at %p; want state %d, empty, its array %p in room for %d",
			p.free, dead.n, dead.writer, dead.rn, dead.rc, dead.rp, high, highArray, highCap)
	}

	h.ApplyPage(e, 0, slotRun(0, pageSize/2), &SlotSet{})
	if got := p.stateOf(0); got != high || p.at(got).rp != highArray || !slices.Equal(p.at(got).readers(), []*sched.Strand{e}) {
		t.Fatalf("e's read split off state %d with readers %v at %p; want the freed state %d with [e] in its array %p",
			got, p.at(got).readers(), p.at(got).rp, high, highArray)
	}
	if st.rp != lowArray || st.rn != 0 {
		t.Fatalf("the split's source has %d readers at %p, want none at %p", st.rn, st.rp, lowArray)
	}
}
