package detect

import (
	"testing"

	"sforder/internal/sched"
)

// Layer microbenchmarks: the unit cost of each path an access takes
// through the history, one op per access. Run with -benchmem; the rows
// are
//
//	read-hit       a read the strand's bitmap absorbs
//	read-batched   a read the strand's buffer keeps, its share of the flush included
//	write-batched  the same for a write
//	flush          one batched entry applied at strand close (reads and writes 2:1)
//	flush-run      the same over tile rows, a strand's slots all of one state
//	flush-scatter  the same with a state per slot, what sharing can at worst cost
//	flush-split    the same with readers of overlapping sub-ranges and a merging writer
//	flush-sparse   the same with a strand's three slots on three pages, what racy-small flushes
//	locked         one access on the locked path (FastPath off)
//	report         one flushed entry racing at an address not yet racy, its record retained
//	report-capped  one flushed entry racing once the cap is full, so only counted
//
// BenchmarkNewHistory prices a history's creation, one op per history.
//
// Every strand precedes every other (serialReach), so no op but the
// report rows' pays for a race report; there no two strands are ordered
// (parallelReach).

// benchAddrs is a strand's footprint in the batched rows: under sched's
// early-drain threshold (1024 entries), so the only flush is the one at
// strand close, and four pages' worth.
const benchAddrs = 1000

// passes runs strand passes over the same benchAddrs dense addresses: a
// pass is a new strand touching every address with one kind and closing.
// (A closed strand never acts again.)
type passes struct {
	h    *History
	next uint64 // next strand ID
}

func (p *passes) run(kinds ...AccessKind) {
	for _, kind := range kinds {
		s := newStrand(p.next)
		p.next++
		for a := uint64(0); a < benchAddrs; a++ {
			if kind == AccessWrite {
				p.h.Write(s, a)
			} else {
				p.h.Read(s, a)
			}
		}
		p.h.StrandClose(s)
	}
}

func BenchmarkHistory(b *testing.B) {
	b.Run("read-hit", func(b *testing.B) {
		h := NewHistory(Options{Reach: serialReach{}, FastPath: true})
		s := newStrand(1)
		const span = 2048 // twice sched's 1024-entry early-drain threshold
		for a := uint64(0); a < span; a++ {
			h.Read(s, a) // sets the bit; the two early drains keep it
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Read(s, uint64(i)&(span-1))
		}
	})
	b.Run("read-batched", func(b *testing.B) {
		p := passes{h: NewHistory(Options{Reach: serialReach{}, FastPath: true})}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += 3 * benchAddrs {
			p.run(AccessRead, AccessRead, AccessRead)
			b.StopTimer()
			p.run(AccessWrite) // empty the reader sets, untimed
			b.StartTimer()
		}
	})
	b.Run("write-batched", func(b *testing.B) {
		p := passes{h: NewHistory(Options{Reach: serialReach{}, FastPath: true})}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += benchAddrs {
			p.run(AccessWrite)
		}
	})
	for _, row := range []struct {
		name  string
		fills []fill
	}{
		{"flush", denseFills()},
		{"flush-run", tileFills()},
		{"flush-scatter", scatterFills()},
		{"flush-split", splitFills()},
		{"flush-sparse", sparseFills()},
	} {
		b.Run(row.name, func(b *testing.B) {
			cycle, entries := flushCycle(row.fills)
			cycle() // grow the state tables and the reader slices
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += entries {
				cycle()
			}
		})
	}
	b.Run("locked", func(b *testing.B) {
		p := passes{h: NewHistory(Options{Reach: serialReach{}})}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += 4 * benchAddrs {
			p.run(AccessRead, AccessRead, AccessRead, AccessWrite)
		}
	})
	b.Run("report", func(b *testing.B) {
		// A batch of histories whose one page a first strand wrote whole,
		// made untimed; then eight parallel strands each write a fresh
		// quarter-word of it, every slot a race at an address not yet
		// racy, the 256 records exactly the default cap.
		hs := make([]*History, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(hs) * pageSize {
			b.StopTimer()
			for k := range hs {
				hs[k] = NewHistory(Options{Reach: parallelReach{}})
				hs[k].ApplyPage(newStrand(0), 0, &SlotSet{}, &reportSets[0])
			}
			b.StartTimer()
			for _, h := range hs {
				for j := range reportSets[1:] {
					h.ApplyPage(newStrand(uint64(1+j)), 0, &SlotSet{}, &reportSets[1+j])
				}
			}
		}
	})
	b.Run("report-capped", func(b *testing.B) {
		// The same writes, strand after strand on one history whose cap
		// is full: every entry races with the last writer of its slots.
		h := NewHistory(Options{Reach: parallelReach{}})
		h.ApplyPage(newStrand(0), 0, &SlotSet{}, &reportSets[0])
		strands := make([]*sched.Strand, 8*len(reportSets[1:]))
		for j := range strands {
			strands[j] = newStrand(uint64(1 + j))
		}
		for j, s := range strands[:len(reportSets[1:])] {
			h.ApplyPage(s, 0, &SlotSet{}, &reportSets[1+j])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(strands) * pageSize / 8 {
			for j, s := range strands {
				h.ApplyPage(s, 0, &SlotSet{}, &reportSets[1+j%8])
			}
		}
	})
}

// reportSets are the report rows' write sets: a whole page, then its eight
// quarter-words of 32 slots.
var reportSets = func() (sets [9]SlotSet) {
	sets[0] = SlotSet{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	for j := range 8 {
		sets[1+j][j/2] = 0xffffffff << (j % 2 * 32)
	}
	return sets
}()

// BenchmarkNewHistory is the history's share of a run's fixed cost, the
// whole of it on a small program: empty is NewHistory alone, one-page a
// new history that one strand writes 32 addresses of one page into and
// closes.
func BenchmarkNewHistory(b *testing.B) {
	b.Run("empty", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = NewHistory(Options{Reach: serialReach{}, FastPath: true})
		}
	})
	b.Run("one-page", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := NewHistory(Options{Reach: serialReach{}, FastPath: true})
			s := newStrand(1)
			for a := uint64(0); a < 32; a++ {
				h.Write(s, a)
			}
			h.StrandClose(s)
			sink = h
		}
	})
}

// sink keeps a benchmark's history from being optimised away.
var sink *History

// fill is one strand's accesses in a flush row: every address, one kind.
type fill struct {
	kind  AccessKind
	addrs []uint64
}

func span(from, to, step uint64) (addrs []uint64) {
	for a := from; a < to; a += step {
		addrs = append(addrs, a)
	}
	return addrs
}

// denseFills is the flush row: twice two strands' reads of benchAddrs
// dense addresses and then a third's writes, which empty the reader sets
// again. Two rounds, so that no strand follows itself as a location's
// writer. Every page is one state throughout.
func denseFills() []fill {
	all := span(0, benchAddrs, 1)
	return []fill{{AccessRead, all}, {AccessRead, all}, {AccessWrite, all}, {AccessRead, all}, {AccessRead, all}, {AccessWrite, all}}
}

// tileFills is the common case of the paper's kernels, flush-run: a band
// of a 128-wide matrix, sixteen rows over eight pages, and per 16×16 tile
// two strands reading it and one writing it. A page holds a state per
// tile, and every strand's slots there are all of one state's.
func tileFills() (fs []fill) {
	for tile := uint64(0); tile < 8; tile++ {
		var addrs []uint64
		for row := uint64(0); row < 16; row++ {
			addrs = append(addrs, span(row*128+tile*16, row*128+tile*16+16, 1)...)
		}
		fs = append(fs, fill{AccessRead, addrs}, fill{AccessRead, addrs}, fill{AccessWrite, addrs})
	}
	return fs
}

// scatterFills is the bound, flush-scatter: 250 strands each the last
// writer of one slot on each of four pages, so no two slots share a
// state, and two strands reading everything, a state per slot.
func scatterFills() (fs []fill) {
	all := span(0, benchAddrs, 1)
	fs = append(fs, fill{AccessRead, all}, fill{AccessRead, all})
	for k := uint64(0); k < benchAddrs/4; k++ {
		fs = append(fs, fill{AccessWrite, span(k, benchAddrs, benchAddrs/4)})
	}
	return fs
}

// splitFills is flush-split: readers of overlapping sub-ranges of what one
// strand wrote, each splitting the states the last one left, and a writer
// merging them again.
func splitFills() []fill {
	return []fill{
		{AccessRead, span(0, benchAddrs/2, 1)},
		{AccessRead, span(benchAddrs/4, 3*benchAddrs/4, 1)},
		{AccessRead, span(1, benchAddrs, 2)},
		{AccessRead, span(benchAddrs/8, benchAddrs, 3)},
		{AccessWrite, span(0, benchAddrs, 1)},
	}
}

// sparseFills is flush-sparse: 96 strands, two reading and the third
// writing, each touching three slots a third of benchAddrs apart, so every
// page application is of one slot, as on small generated programs.
func sparseFills() (fs []fill) {
	for k := uint64(0); k < 96; k++ {
		kind := AccessRead
		if k%3 == 2 {
			kind = AccessWrite
		}
		fs = append(fs, fill{kind, span(k*7, benchAddrs, benchAddrs/3)})
	}
	return fs
}

// flushCycle returns a function that runs one strand-close flush per fill,
// in order, and the number of entries one call applies. The buffers are
// filled and drained once; a call applies what they handed out again, page
// by page as flush does, so it does no buffering work and allocates no
// strand.
func flushCycle(fills []fill) (cycle func(), entries int) {
	h := NewHistory(Options{Reach: serialReach{}, FastPath: true})
	type drained struct {
		s     *sched.Strand
		num   uint64
		pages [2]SlotSet // reads, writes
	}
	var ds []drained
	for i, fl := range fills {
		s := newStrand(uint64(i))
		for _, a := range fl.addrs {
			h.access(s, a, fl.kind)
		}
		s.Buf.Drain(func(num uint64, reads, writes *SlotSet) {
			ds = append(ds, drained{s, num, [2]SlotSet{*reads, *writes}})
		})
		entries += len(fl.addrs)
	}
	return func() {
		for i := range ds {
			d := &ds[i]
			h.ApplyPage(d.s, d.num, &d.pages[AccessRead], &d.pages[AccessWrite])
		}
	}, entries
}

// TestFlushSteadyStateAllocs: once the states exist and the reader slices
// have grown, applying a batch allocates nothing — no snapshot, no table
// entry — whether it updates states in place or splits and merges them.
func TestFlushSteadyStateAllocs(t *testing.T) {
	for _, fills := range [][]fill{denseFills(), tileFills(), splitFills(), sparseFills()} {
		cycle, entries := flushCycle(fills)
		for warm := 0; warm < 4; warm++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
			t.Errorf("steady-state flush: %.1f allocations per %d entries, want 0", allocs, entries)
		}
	}
}

// countingTap counts the entries it is handed and checks the lists agree.
type countingTap struct{ entries, writes int }

func (c *countingTap) TapAccesses(s *sched.Strand, addrs []uint64, kinds []AccessKind) {
	c.entries += len(addrs)
	for _, k := range kinds[:len(addrs)] {
		c.writes += int(k)
	}
}

// TestLockedTapAllocatesNothingPerAccess: the locked history hands every
// access to the tap as lists of one, and the lists are the scratch of the
// strand's buffer — taken at the strand's first access, given back at its
// close — not two allocations an access.
func TestLockedTapAllocatesNothingPerAccess(t *testing.T) {
	tap := &countingTap{}
	h := NewHistory(Options{Reach: serialReach{}, Tap: tap})
	s := newStrand(1)
	h.Write(s, 40) // the buffer and its scratch, the page and its state
	h.Read(s, 40)
	if allocs := testing.AllocsPerRun(100, func() {
		h.Read(s, 40)
		h.Write(s, 41)
	}); allocs != 0 {
		t.Errorf("a tapped access on the locked path allocates %.1f times, want 0", allocs/2)
	}
	if tap.entries != 2+2*101 || tap.writes != 1+101 {
		t.Errorf("the tap saw %d entries, %d of them writes; the strand made %d and %d", tap.entries, tap.writes, 2+2*101, 1+101)
	}
	if s.Buf == nil {
		t.Fatal("the locked history taps through no buffer")
	}
	h.StrandClose(s)
	if s.Buf != nil {
		t.Error("StrandClose left the scratch buffer on the strand")
	}
}
