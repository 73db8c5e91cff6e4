package trace_test

import (
	"io"
	"testing"

	"sforder/internal/sched"
	"sforder/internal/trace"
)

// BenchmarkRecorder is the unit cost of the standalone record path (the
// recorder as the engine's access checker, no detection), one op per
// access:
//
//	hit  an access the strand's buffer absorbs
//	new  an access it keeps, with its share of the blocks written at strand close
func BenchmarkRecorder(b *testing.B) {
	const addrs = 1000 // a strand's footprint: four shadow pages
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
	b.Run("new", func(b *testing.B) {
		rec := trace.NewRecorder(io.Discard)
		s := &sched.Strand{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += addrs {
			s.ID++ // a closed strand's slot is free again: the next strand
			for a := uint64(0); a < addrs; a++ {
				rec.Write(s, a)
			}
			rec.StrandClose(s)
		}
	})
}
