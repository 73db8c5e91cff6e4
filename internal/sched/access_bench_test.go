package sched_test

import (
	"io"
	"testing"

	"sforder/internal/detect"
	"sforder/internal/obsv"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// everything says every strand precedes every other, so no row pays for a
// race report.
type everything struct{}

func (everything) Precedes(u, v *sched.Strand) bool { return true }

// BenchmarkTaskAccess is the unit cost of Task.Read on each path an access
// can take out of it, one op per access, one worker:
//
//	no-checker        the base and reach configurations: nothing to call
//	hit               an access the strand's buffer covers, tested inline
//	first-touch       an access the buffer keeps, its share of the flush
//	                  and of a strand turnover every 1000 included
//	recorder-first-touch
//	                  the same with the trace recorder as the page sink
//	                  (recording without detection): a block a page
//	front-collision   covered accesses to 96 pages taking turns in the
//	                  buffer's 64 front slots: inline miss, checker call,
//	                  spill map
//	mm-leaf-no-checker
//	                  one leaf of workload.MM(128, 16) in its own order, a
//	                  strand each: 8,704 accesses over 24 pages, A's and
//	                  B's alternating
//	mm-leaf           the same with the history: 1,024 accesses of a leaf
//	                  kept, the rest covered — the covered path in
//	                  context, where hit walks one page at a time
//	interposed-hit    a covered access under a wrapper (wrapped, as the
//	                  benchmark's timing wrappers): the interface path
//	counted-hit       a covered access in a run that counts accesses
//
// and of Task.ReadRange, one op per range, reported per address (ns/addr):
//
//	range-kept-64     64 addresses the buffer keeps, a strand turnover
//	                  every 960 addresses included, as first-touch
//	range-covered-64  64 addresses the buffer covers
//	range-3-page      512 kept addresses over three pages (a half, a
//	                  whole and a half), a strand each
func BenchmarkTaskAccess(b *testing.B) {
	const footprint = 1000 // addresses a strand touches, under the early-drain threshold
	history := func() *detect.History {
		return detect.NewHistory(detect.Options{Reach: everything{}, FastPath: true})
	}
	// hits touches the footprint once and then times reads of it.
	hits := func(opts sched.Options) func(*testing.B) {
		return func(b *testing.B) {
			opts.Serial = true
			_, err := sched.Run(opts, func(t *sched.Task) {
				for a := uint64(0); a < footprint; a++ {
					t.Read(a)
				}
				b.ResetTimer()
				for i, a := 0, uint64(0); i < b.N; i++ {
					t.Read(a)
					if a++; a == footprint {
						a = 0
					}
				}
				b.StopTimer()
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("no-checker", hits(sched.Options{}))
	b.Run("hit", hits(sched.Options{Checker: history()}))
	firstTouch := func(checker sched.AccessChecker) func(*testing.B) {
		return func(b *testing.B) {
			_, err := sched.Run(sched.Options{Serial: true, Checker: checker}, func(t *sched.Task) {
				b.ResetTimer()
				for i, a := 0, uint64(0); i < b.N; i++ {
					t.Read(a)
					if a++; a == footprint {
						a = 0
						t.Spawn(func(*sched.Task) {}) // the strand ends: flush, and a new buffer
						t.Sync()
					}
				}
				b.StopTimer()
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("first-touch", firstTouch(history()))
	b.Run("recorder-first-touch", firstTouch(trace.NewRecorder(io.Discard)))
	b.Run("front-collision", func(b *testing.B) {
		const pages = 96
		_, err := sched.Run(sched.Options{Serial: true, Checker: history()}, func(t *sched.Task) {
			for p := uint64(0); p < pages; p++ {
				t.Read(p << detect.PageBits)
			}
			b.ResetTimer()
			for i, p := 0, uint64(0); i < b.N; i++ {
				t.Read(p << detect.PageBits)
				if p++; p == pages {
					p = 0
				}
			}
			b.StopTimer()
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	mmLeaf := func(checker sched.AccessChecker) func(*testing.B) {
		return func(b *testing.B) {
			order := leafOrder()
			_, err := sched.Run(sched.Options{Serial: true, Checker: checker}, func(t *sched.Task) {
				b.ResetTimer()
				for i, k := 0, 0; i < b.N; i++ {
					if a := order[k]; a&leafWrite != 0 {
						t.Write(a &^ leafWrite)
					} else {
						t.Read(a)
					}
					if k++; k == len(order) {
						k = 0
						t.Spawn(func(*sched.Task) {}) // the leaf's strand ends
						t.Sync()
					}
				}
				b.StopTimer()
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("mm-leaf-no-checker", mmLeaf(nil))
	b.Run("mm-leaf", mmLeaf(history()))
	h := history()
	b.Run("interposed-hit", hits(sched.Options{Checker: wrapped{h, h}}))
	b.Run("counted-hit", hits(sched.Options{Checker: history(), Stats: obsv.NewRegistry()}))

	// ranges times ReadRange(lo, n) for lo = start, start+n, … up to
	// start+span, then over again — on a new strand each time when kept.
	ranges := func(start uint64, n, span int, kept bool) func(*testing.B) {
		return func(b *testing.B) {
			_, err := sched.Run(sched.Options{Serial: true, Checker: history()}, func(t *sched.Task) {
				if !kept {
					t.ReadRange(start, span)
				}
				b.ResetTimer()
				for i, off := 0, 0; i < b.N; i++ {
					t.ReadRange(start+uint64(off), n)
					if off += n; off == span {
						off = 0
						if kept {
							t.Spawn(func(*sched.Task) {})
							t.Sync()
						}
					}
				}
				b.StopTimer()
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/addr")
		}
	}
	b.Run("range-kept-64", ranges(0, 64, 960, true))
	b.Run("range-covered-64", ranges(0, 64, 960, false))
	b.Run("range-3-page", ranges(1<<detect.PageBits/2, 2<<detect.PageBits, 2<<detect.PageBits, true))
}

// leafWrite marks a write in leafOrder's order.
const leafWrite = 1 << 63

// leafOrder is the access order of one base case of workload.MM(128, 16)
// (mmState.base) at the origin: for each cell of C's 16×16 tile, the dot
// product's reads of A's row and B's column in turn, then C's read and
// write. A row of 128 is half a page, so each tile lies on 8 pages.
func leafOrder() (order []uint64) {
	const n, leaf = 128, 16
	for i := range leaf {
		for j := range leaf {
			for k := range leaf {
				order = append(order, uint64(i*n+k), uint64(n*n+k*n+j))
			}
			c := uint64(2*n*n + i*n + j)
			order = append(order, c, c|leafWrite)
		}
	}
	return order
}
