package trace_test

import (
	"fmt"
	"io"
	"testing"

	"sforder/internal/detect"
	"sforder/internal/obsv"
	"sforder/internal/sched"
	"sforder/internal/trace"
	"sforder/internal/workload"
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
// The kept rows report the capture's bytes per entry. The engine rows
// record a program standalone through sched.Run at 1 and 2 workers, one
// op per run, and report the run's wall per structure event recorded:
//
//	chain   a create/get chain of 2000 futures
//	spine   a nested spawn spine 2000 deep
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
			rec.Close()
			b.ReportMetric(float64(rec.Bytes()-header)/float64(s.ID*n), "B/entry")
		}
	}
	b.Run("new", kept(addrs, 1))
	b.Run("sparse", kept(4, 1<<detect.PageBits))

	record := func(main func(*sched.Task), workers int) *trace.Recorder {
		rec := trace.NewRecorder(io.Discard)
		if _, err := sched.Run(sched.Options{Workers: workers, Aux: rec, Checker: rec}, main); err != nil {
			b.Fatal(err)
		}
		rec.Close()
		return rec
	}
	for _, wb := range []*workload.Benchmark{workload.Chain(2000, 2), workload.Spine(2000, 2)} {
		run := wb.Make()
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", wb.Name, workers), func(b *testing.B) {
				reg := obsv.NewRegistry()
				record(run.Main, workers).RegisterStats(reg)
				events := reg.Snapshot()["record.struct_events"]
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					record(run.Main, workers)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*events), "ns/event")
			})
		}
	}
}
