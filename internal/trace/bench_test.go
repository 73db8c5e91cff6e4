package trace_test

import (
	"io"
	"testing"

	"sforder/internal/detect"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// BenchmarkRecorder is the unit cost of the standalone record path (the
// recorder as the engine's access checker, no detection), one op per
// access:
//
//	hit     an access the strand's buffer absorbs
//	new     an access it keeps, with its share of the blocks written at
//	        strand close: strands of 1000 consecutive addresses, four pages
//	sparse  the same for strands of four accesses one page apart, the
//	        dag-futures and racy-small shape
//
// The kept rows report the capture's bytes per entry.
func BenchmarkRecorder(b *testing.B) {
	const addrs = 1000
	b.Run("hit", func(b *testing.B) {
		rec := trace.NewRecorder(io.Discard)
		s := &sched.Strand{}
		for a := uint64(0); a < addrs; a++ {
			rec.Write(s, a)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Read(s, uint64(i)%addrs)
		}
	})
	kept := func(n, stride uint64) func(*testing.B) {
		return func(b *testing.B) {
			rec := trace.NewRecorder(io.Discard)
			s := &sched.Strand{}
			header := rec.Bytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += int(n) {
				s.ID++ // a closed strand's slot is free again: the next strand
				for a := uint64(0); a < n; a++ {
					rec.Write(s, a*stride)
				}
				rec.StrandClose(s)
			}
			b.StopTimer()
			b.ReportMetric(float64(rec.Bytes()-header)/float64(s.ID*n), "B/entry")
		}
	}
	b.Run("new", kept(addrs, 1))
	b.Run("sparse", kept(4, 1<<detect.PageBits))
}
