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
//	locked         one access on the locked path (FastPath off)
//
// Every strand precedes every other (serialReach), so no op pays for a
// race report.

// benchAddrs is a strand's footprint in the batched rows: under batchCap,
// so the only flush is the one at strand close, and four pages' worth.
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
		for a := uint64(0); a < 2*batchCap; a++ {
			h.Read(s, a) // sets the bit; the two early flushes keep it
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Read(s, uint64(i)&(2*batchCap-1))
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
	b.Run("flush", func(b *testing.B) {
		cycle, entries := flushCycle()
		cycle() // grow the reader slices
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += entries {
			cycle()
		}
	})
	b.Run("locked", func(b *testing.B) {
		p := passes{h: NewHistory(Options{Reach: serialReach{}})}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += 4 * benchAddrs {
			p.run(AccessRead, AccessRead, AccessRead, AccessWrite)
		}
	})
}

// flushCycle returns a function that runs six strand-close flushes over
// the same benchAddrs addresses — twice two strands' reads and then a
// third's writes, which empty the reader sets again — and the number of
// entries one call applies. The buffers are filled once; a flush drains
// them and the cycle puts their pages back on the dirty list at their old
// lengths, so a call does no buffering work and allocates no strand. Two
// rounds, so that no strand follows itself as a location's writer.
func flushCycle() (cycle func(), entries int) {
	h := NewHistory(Options{Reach: serialReach{}, FastPath: true})
	type filled struct {
		s  *sched.Strand
		ss *strandState
		n  []int // pending entries per page, in the buffer's page order
	}
	var fs []filled
	for i, kind := range []AccessKind{AccessRead, AccessRead, AccessWrite, AccessRead, AccessRead, AccessWrite} {
		s := newStrand(uint64(i))
		for a := uint64(0); a < benchAddrs; a++ {
			h.fastAccess(s, a, kind)
		}
		f := filled{s: s, ss: stateOf(s)}
		for _, pb := range f.ss.buf.pages {
			f.n = append(f.n, len(pb.addrs))
		}
		fs = append(fs, f)
	}
	return func() {
		for _, f := range fs {
			b := &f.ss.buf
			for i, pb := range b.pages {
				pb.addrs, pb.kinds, pb.queued = pb.addrs[:f.n[i]], pb.kinds[:f.n[i]], true
			}
			b.dirty, b.pending = append(b.dirty, b.pages...), benchAddrs
			h.flush(f.s, f.ss)
		}
	}, len(fs) * benchAddrs
}

// TestFlushSteadyStateAllocs: once the records exist and the reader
// slices have grown, applying a batch allocates nothing — no snapshot, no
// table entry, no closure.
func TestFlushSteadyStateAllocs(t *testing.T) {
	cycle, entries := flushCycle()
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("steady-state flush: %.1f allocations per %d entries, want 0", allocs, entries)
	}
}
