package sched_test

import (
	"testing"

	"sforder/internal/detect"
	"sforder/internal/sched"
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
//	front-collision   covered accesses to 96 pages taking turns in the
//	                  buffer's 64 front slots: inline miss, checker call,
//	                  spill map
//	interposed-hit    a covered access under a wrapper (wrapped, as the
//	                  benchmark's timing wrappers): the interface path
//	counted-hit       a covered access in a run that counts accesses
func BenchmarkTaskAccess(b *testing.B) {
	const footprint = 1000 // addresses a strand touches, under detect's early-flush threshold
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
	b.Run("first-touch", func(b *testing.B) {
		_, err := sched.Run(sched.Options{Serial: true, Checker: history()}, func(t *sched.Task) {
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
	})
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
	h := history()
	b.Run("interposed-hit", hits(sched.Options{Checker: wrapped{h, h}}))
	b.Run("counted-hit", hits(sched.Options{Checker: history(), CountAccesses: true}))
}
