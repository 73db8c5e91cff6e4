package accbuf

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// batchCap is the pending count at which sched.Keep and KeepRange drain
// early (sched's batchCap).
const batchCap = 1024

// pageBatchBytes is all a touched page costs its strand.
const pageBatchBytes = int(unsafe.Sizeof(pageBatch{}))

type bufEntry struct {
	addr uint64
	kind AccessKind
}

// drainInto adds what b has pending to got and returns the pages in the
// order the drain handed them out. An entry coming out twice fails the
// test: got is a set.
func drainInto(t *testing.T, b *StrandBuffer, got map[bufEntry]bool) (order []uint64) {
	b.Drain(func(page uint64, reads, writes *SlotSet) {
		order = append(order, page)
		addrs, kinds := b.Expand(page, reads, writes)
		for i, a := range addrs {
			if e := (bufEntry{a, kinds[i]}); got[e] {
				t.Fatalf("%v of %#x drained twice", e.kind, e.addr)
			} else {
				got[e] = true
			}
		}
	})
	return order
}

// TestStrandBufferMatchesReference is the buffer's property test: over
// random access sequences that cross batchCap several times, what each
// drain hands out is exactly the set of entries a map-based statement of
// the subsumption rule has kept since the drain before — so nothing comes
// out twice, before or after an early drain — and every drain visits its
// pages in first-touch order. (Inside a page the buffer keeps a set, not a
// sequence: program order there is not a property.)
func TestStrandBufferMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name            string
		pages, accesses int
	}{
		{"dense, few pages", 12, 30000},
		{"front collisions and spill", 200, 60000},
		{"more pages than the pool keeps", 600, 40000},
	} {
		rng := rand.New(rand.NewSource(int64(tc.pages)))
		// Page numbers far apart, and a few runs a power of two apart as
		// in the matrix kernels.
		nums := make([]uint64, tc.pages)
		for i := range nums {
			nums[i] = uint64(i%3)<<20 | uint64(i/3) | uint64(rng.Intn(2))<<40
		}
		var b StrandBuffer
		seen := map[uint64]uint8{}  // addr → kinds already kept, the rule's reference form
		want := map[bufEntry]bool{} // kept since the last drain
		var wantOrder []uint64      // pages with pending entries, first-touch order
		drains := 0
		for i := 0; i < tc.accesses; i++ {
			addr := nums[rng.Intn(len(nums))]<<PageBits | uint64(rng.Intn(1<<PageBits))
			kind := AccessKind(rng.Intn(2))
			m := seen[addr]
			keep := m&(1<<AccessWrite) == 0 && (kind == AccessWrite || m == 0)
			if kept := b.Add(addr, kind); kept != keep {
				t.Fatalf("%s: access %d (%v %#x): kept %v, the rule says %v", tc.name, i, kind, addr, kept, keep)
			}
			if keep {
				seen[addr] = m | 1<<kind
				page := addr >> PageBits
				want[bufEntry{addr, kind}] = true
				if !slices.Contains(wantOrder, page) {
					wantOrder = append(wantOrder, page)
				}
			}
			if b.Pending() >= batchCap || i == tc.accesses-1 {
				got := map[bufEntry]bool{}
				if order := drainInto(t, &b, got); !slices.Equal(order, wantOrder) {
					t.Fatalf("%s: drain %d visited pages %v, first-touch order is %v", tc.name, drains, order, wantOrder)
				}
				if !maps.Equal(got, want) {
					t.Fatalf("%s: drain %d handed out %d entries, the rule kept %d others", tc.name, drains, len(got), len(want))
				}
				clear(want)
				wantOrder = wantOrder[:0]
				drains++
			}
		}
		if drains < 4 {
			t.Fatalf("%s: only %d drains; the sequence must cross batchCap several times", tc.name, drains)
		}
		if pool := b.reset(); pool != (tc.pages <= poolMaxPages) {
			t.Errorf("%s: reset reported pool=%v after %d pages, the bound is %d", tc.name, pool, tc.pages, poolMaxPages)
		}
		// A reset buffer has forgotten the strand.
		if !b.Add(nums[0]<<PageBits, AccessRead) || b.Pending() != 1 {
			t.Errorf("%s: first access after reset was not kept", tc.name)
		}
	}
}

// rangeOp is one step of an AddRange check: n accesses of kind from addr
// on (n = 1 through Add, when single), or a drain.
type rangeOp struct {
	addr   uint64
	n      int
	kind   AccessKind
	single bool
	drain  bool
}

// drainPages returns what a drain of b hands out, page by page in order.
func drainPages(b *StrandBuffer) (pages []uint64, sets [][2]SlotSet) {
	b.Drain(func(page uint64, reads, writes *SlotSet) {
		pages = append(pages, page)
		sets = append(sets, [2]SlotSet{*reads, *writes})
	})
	return pages, sets
}

// checkAddRange runs ops on two buffers, the ranges through AddRange on
// one and as that many Adds on the other, and fails unless they agree
// after every op on the kept count and Pending, and at every drain (and
// a last one) on the pages in order and their sets.
func checkAddRange(t *testing.T, ops []rangeOp) {
	t.Helper()
	var got, ref StrandBuffer
	drain := func(i int) {
		t.Helper()
		gp, gs := drainPages(&got)
		rp, rs := drainPages(&ref)
		if !slices.Equal(gp, rp) || !slices.Equal(gs, rs) {
			t.Fatalf("op %d: drained pages %v, Add's drain has %v (sets equal: %v)", i, gp, rp, slices.Equal(gs, rs))
		}
	}
	for i, op := range ops {
		if op.drain {
			drain(i)
			continue
		}
		var kept, want int
		if op.single {
			kept = b2i(got.Add(op.addr, op.kind))
		} else {
			kept = got.AddRange(op.addr, op.n, op.kind)
		}
		for k := 0; k < op.n; k++ {
			want += b2i(ref.Add(op.addr+uint64(k), op.kind))
		}
		if kept != want || got.Pending() != ref.Pending() {
			t.Fatalf("op %d (%v of %d from %#x): kept %d, pending %d; Add kept %d, pending %d",
				i, op.kind, op.n, op.addr, kept, got.Pending(), want, ref.Pending())
		}
	}
	drain(len(ops))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestAddRangeMatchesAdd: a range is its n single accesses, at the edges
// of a word and a page and across them.
func TestAddRangeMatchesAdd(t *testing.T) {
	const page = 1 << PageBits
	for _, tc := range []struct {
		name string
		ops  []rangeOp
	}{
		{"empty", []rangeOp{{addr: 5 * page, n: 0}, {addr: 5*page + 3, n: 1, single: true}, {addr: 5 * page, n: 0, kind: AccessWrite}}},
		{"ends at a page end", []rangeOp{{addr: 7*page + 100, n: page - 100}, {addr: 7*page + 200, n: page - 200, kind: AccessWrite}}},
		{"starts at bit 63", []rangeOp{{addr: 2*page + 63, n: 2}, {addr: 2*page + 64 + 63, n: 70, kind: AccessWrite}, {addr: 2*page + 63, n: 130}}},
		{"crosses two page boundaries", []rangeOp{{addr: 9*page + 250, n: page + 10}, {addr: 9*page + 10, n: 3 * page, kind: AccessWrite}}},
		{"read, write, read again", []rangeOp{
			{addr: 40, n: 100}, {addr: 60, n: 100, kind: AccessWrite}, {drain: true},
			{addr: 0, n: 300}, {addr: 0, n: 300, kind: AccessWrite}, {addr: 150, n: 1, kind: AccessWrite, single: true},
		}},
		{"wraps past the top", []rangeOp{{addr: ^uint64(0) - 9, n: 20}, {addr: 0, n: 15, kind: AccessWrite}}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkAddRange(t, tc.ops) })
	}
}

// FuzzAddRange: any mix of ranges (up to three pages, at any address),
// single accesses and drains leaves AddRange's buffer equal to Add's.
// Each op is four bytes: kind, single and drain bits, an offset into four
// pages from base, and a length.
func FuzzAddRange(f *testing.F) {
	f.Add(uint64(0), []byte{0, 0, 0, 0})
	f.Add(uint64(1<<PageBits-7), []byte{0, 3, 0, 200, 1, 250, 4, 255, 4, 0, 0, 0, 2, 63, 0, 1})
	f.Add(^uint64(0)-300, []byte{1, 255, 3, 255, 0, 10, 0, 5, 8, 0, 0, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, base uint64, data []byte) {
		var ops []rangeOp
		for ; len(data) >= 4; data = data[4:] {
			off := uint64(data[1]) | uint64(data[2]&3)<<8
			ops = append(ops, rangeOp{
				addr:   base + off,
				n:      (int(data[3]) | int(data[2]>>2)<<8) % (3<<PageBits + 1),
				kind:   AccessKind(data[0] & 1),
				single: data[0]&2 != 0,
				drain:  data[0]&12 == 12,
			})
			if ops[len(ops)-1].single {
				ops[len(ops)-1].n = 1
			}
		}
		checkAddRange(t, ops)
	})
}

// TestStrandBufferFootprint pins what a strand's buffer holds on to: a
// touched page costs its batch (four bitmaps and a number) and nothing per
// entry; a strand like the last one reuses all of it; and a strand that
// touched too many pages leaves nothing behind to pool.
func TestStrandBufferFootprint(t *testing.T) {
	if pageBatchBytes > 144 {
		t.Errorf("a touched page costs %d bytes, want at most 144", pageBatchBytes)
	}

	var b StrandBuffer
	strand := func() {
		// 40 pages in three runs, colliding in the front here and there,
		// crossing batchCap twice.
		for p := uint64(0); p < 40; p++ {
			for a := uint64(0); a < 64; a++ {
				b.Add((p%3<<16|p)<<PageBits|a, AccessKind(a&1))
				b.Add((p%3<<16|p)<<PageBits|a, AccessRead)
			}
			if b.Pending() >= batchCap {
				b.Drain(func(uint64, *SlotSet, *SlotSet) {})
			}
		}
		b.Drain(func(uint64, *SlotSet, *SlotSet) {})
		if !b.reset() {
			t.Fatal("a 40-page strand was not worth pooling")
		}
	}
	strand()
	if allocs := testing.AllocsPerRun(10, strand); allocs != 0 {
		t.Errorf("a strand over the pages of the last one allocated %.1f times, want 0", allocs)
	}

	// One address on each of 100k pages: the batches, the spill map's
	// buckets and the page lists must all go, not wait in a pool.
	for p := uint64(0); p < 100_000; p++ {
		b.Add(p<<PageBits, AccessWrite)
	}
	if b.reset() {
		t.Fatal("a 100k-page strand reported its buffer as worth pooling")
	}
	if b.spill != nil || cap(b.pages) != 0 || cap(b.dirty) != 0 || cap(b.free) != 0 {
		t.Errorf("after an oversized strand the buffer still holds spill=%d pages=%d dirty=%d free=%d",
			len(b.spill), cap(b.pages), cap(b.dirty), cap(b.free))
	}
}

// TestFrontHoldsAMatrixLeaf pins the front's associativity on the access
// stream it was sized for: the leaves of workload.MM(128, 16), a strand
// each, multiplying 16×16 tiles of three 128×128 matrices laid out one
// after the other — 24 pages a leaf, A's and B's alternating in the inner
// loop. An access that finds its page in neither way goes through
// frontMiss, and pages that keep pushing each other out go through the
// spill map every time; across all 512 leaves there must be at most two
// misses per page first touched (direct-mapped, the same 64 slots took
// 8.3).
func TestFrontHoldsAMatrixLeaf(t *testing.T) {
	const n, tile = 128, 16
	var b StrandBuffer
	misses, pages := 0, 0
	add := func(matrix, r, c int, kind AccessKind) {
		addr := uint64(matrix*n*n + r*n + c)
		num := addr >> PageBits
		if i := frontSlot(num); (b.front[i] == nil || b.front[i].num != num) && (b.front[i^1] == nil || b.front[i^1].num != num) {
			misses++ // Add will go through frontMiss
		}
		b.Add(addr, kind)
	}
	for ti := 0; ti < n; ti += tile {
		for tj := 0; tj < n; tj += tile {
			for tk := 0; tk < n; tk += tile {
				for i := 0; i < tile; i++ {
					for j := 0; j < tile; j++ {
						for k := 0; k < tile; k++ {
							add(0, ti+i, tk+k, AccessRead)
							add(1, tk+k, tj+j, AccessRead)
						}
						add(2, ti+i, tj+j, AccessRead)
						add(2, ti+i, tj+j, AccessWrite)
					}
				}
				pages += len(b.pages)
				b.reset()
			}
		}
	}
	t.Logf("%d front misses over %d first-touched pages (%.2f a page)", misses, pages, float64(misses)/float64(pages))
	if pages != 512*24 {
		t.Fatalf("the leaves touched %d pages, want 512 × 24", pages)
	}
	if misses > 2*pages {
		t.Errorf("%d front misses for %d pages: more than two a page", misses, pages)
	}
}

// TestExpandScratchGoesWithTheStrand: the lists Expand returns are the
// buffer's own — a strand's second drain reuses the first one's — and a
// buffer goes back to the pool without them, so a run that taps nothing
// never holds scratch a tapped run grew.
func TestExpandScratchGoesWithTheStrand(t *testing.T) {
	var b StrandBuffer
	if b.addrs != nil || b.kinds != nil {
		t.Fatal("a fresh buffer has scratch")
	}
	expand := func() {
		for a := uint64(0); a < 300; a++ {
			b.Add(a, AccessKind(a&1))
		}
		b.Drain(func(page uint64, reads, writes *SlotSet) {
			addrs, kinds := b.Expand(page, reads, writes)
			if len(addrs) != len(kinds) || len(addrs) == 0 {
				t.Fatalf("Expand returned %d addresses and %d kinds", len(addrs), len(kinds))
			}
			for i, a := range addrs {
				if a>>PageBits != page || kinds[i] != AccessKind(a&1) || i > 0 && kinds[i] < kinds[i-1] {
					t.Fatalf("entry %d of page %d is %v %#x", i, page, kinds[i], a)
				}
			}
		})
	}
	expand()
	if b.addrs == nil {
		t.Fatal("Expand kept no scratch")
	}
	if !b.reset() {
		t.Fatal("a two-page strand was not worth pooling")
	}
	if b.addrs != nil || b.kinds != nil {
		t.Error("reset kept the scratch")
	}
}
