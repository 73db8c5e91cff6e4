// Benchmarks regenerating the paper's evaluation artifacts, one family
// per table/figure (see DESIGN.md §5 and EXPERIMENTS.md):
//
//	BenchmarkFig3Characteristics  — Figure 3 columns as reported metrics
//	BenchmarkFig5Memory           — Figure 5: reachability memory as reported metrics
//	BenchmarkAblationReaderPolicy — ABL1: ReadersAll vs ReadersLR histories
//	BenchmarkAblationBitmapVsHash — ABL3: SF-Order bitmaps vs F-Order tables, reach only
//	BenchmarkAblationFastPath     — ABL7: lock-avoiding access history on vs off
//	BenchmarkAblationReach        — ABL10/11: English/Hebrew OM pair vs DePa fork-path cords
//	BenchmarkReplayScaling        — ABL12: offline replay of recorded captures, shard scaling
//	BenchmarkReplayRebuild        — ABL13: the replay rebuild, OM vs DePa, loaded vs streamed
//
// The Figure 4 timing grid is not here: its cells are the bench/
// module's full_overhead_* / reach_overhead_t1 metrics and
// `sforder -table fig4`. Benchmark inputs are reduced from the paper's (its testbed ran minutes
// per cell on a 20-core Xeon); the overhead and memory ratios — the
// quantities the paper's claims are about — are preserved. Run with:
//
//	go test -bench=. -benchmem
package sforder_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"sforder"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/engine"
	"sforder/internal/forder"
	"sforder/internal/harness"
	"sforder/internal/obsv"
	"sforder/internal/progen"
	"sforder/internal/replay"
	"sforder/internal/sched"
	"sforder/internal/trace"
	"sforder/internal/workload"
)

// benchSet returns the five paper benchmarks at benchmark-friendly
// sizes (a full -bench=. sweep stays in the minutes).
func benchSet() []*workload.Benchmark {
	return []*workload.Benchmark{
		workload.MM(64, 16),
		workload.Sort(20_000, 512),
		workload.SW(128, 16),
		workload.HW(4, 16, 256),
		workload.Ferret(16, 256),
	}
}

// measure runs one harness configuration per iteration, excluding input
// generation from the timing.
func measure(b *testing.B, bench *workload.Benchmark, cfg engine.Config) *engine.Result {
	b.Helper()
	var last *engine.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run := bench.Make()
		b.StartTimer()
		res, err := runPrepared(run, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	return last
}

// runPrepared is harness.Run with the workload instance pre-built.
func runPrepared(run *workload.Run, cfg engine.Config) (*engine.Result, error) {
	// Reuse the harness by wrapping the prepared run in a one-shot
	// benchmark (Make returns the same instance once).
	used := false
	wrapper := &workload.Benchmark{Name: "prepared", Make: func() *workload.Run {
		if used {
			panic("bench: prepared run reused")
		}
		used = true
		return run
	}}
	return harness.Run(wrapper, cfg)
}

// BenchmarkFig3Characteristics reports the Figure 3 columns as metrics
// on a full SF-Order run per benchmark.
func BenchmarkFig3Characteristics(b *testing.B) {
	for _, bench := range benchSet() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			res := measure(b, bench, engine.Config{
				Serial: true, Stats: obsv.NewRegistry(), // a registry turns the access counters on
			})
			b.ReportMetric(float64(res.Counts.Reads), "reads")
			b.ReportMetric(float64(res.Counts.Writes), "writes")
			b.ReportMetric(float64(res.Queries), "queries")
			b.ReportMetric(float64(res.Counts.Futures-1), "futures")
			b.ReportMetric(float64(res.Counts.Strands), "nodes")
		})
	}
}

// BenchmarkFig5Memory reports reachability-maintenance memory per
// detector per benchmark.
func BenchmarkFig5Memory(b *testing.B) {
	for _, bench := range benchSet() {
		bench := bench
		for _, det := range []engine.Detector{engine.FOrder, engine.SFOrder} {
			det := det
			b.Run(bench.Name+"/"+det.String(), func(b *testing.B) {
				res := measure(b, bench, engine.Config{Detector: det, ReachabilityOnly: true, Serial: true})
				b.ReportMetric(float64(res.ReachMem), "reach-bytes")
			})
		}
	}
}

// BenchmarkAblationReaderPolicy (ABL1, §3.5 vs §4): the 2k-bounded
// leftmost/rightmost history against the paper's all-readers history,
// full detection with SF-Order.
func BenchmarkAblationReaderPolicy(b *testing.B) {
	for _, bench := range []*workload.Benchmark{workload.MM(64, 16), workload.SW(128, 16)} {
		bench := bench
		for _, policy := range []detect.ReaderPolicy{detect.ReadersAll, detect.ReadersLR} {
			policy := policy
			b.Run(bench.Name+"/"+policy.String(), func(b *testing.B) {
				res := measure(b, bench, engine.Config{Serial: true, Policy: policy})
				b.ReportMetric(float64(res.HistMem), "hist-bytes")
			})
		}
	}
}

// BenchmarkKSweep (KSWEEP): the O(k²) reachability-construction term,
// isolated. Chain(k) holds per-future work constant while k grows;
// F-Order's reach-mode time and memory bend quadratically (each create
// copies a table with an entry per ancestor) while base time stays
// linear in k — and so does SF-Order, whose gp sets down a get-chain are
// single runs (bitset.RunSet): the k = 20000 case is there to keep that
// linear path exercised, and F-Order sits it out (it would want ~20 GB).
// fib (k=0) anchors the fork-join-only cost.
func BenchmarkKSweep(b *testing.B) {
	for _, k := range []int{64, 256, 1024, 20000} {
		bench := workload.Chain(k, 16)
		for _, det := range []engine.Detector{engine.SFOrder, engine.FOrder} {
			det := det
			if det == engine.FOrder && k > 1024 {
				continue
			}
			b.Run(fmt.Sprintf("chain-k%d/%s", k, det), func(b *testing.B) {
				res := measure(b, bench, engine.Config{Detector: det, ReachabilityOnly: true, Serial: true})
				b.ReportMetric(float64(res.ReachMem), "reach-bytes")
			})
		}
		b.Run(fmt.Sprintf("chain-k%d/base", k), func(b *testing.B) {
			measure(b, bench, engine.Config{Detector: engine.NoDetector, Serial: true})
		})
	}
	b.Run("fib-n16/SF-Order", func(b *testing.B) {
		measure(b, workload.Fib(16), engine.Config{ReachabilityOnly: true, Serial: true})
	})
}

// BenchmarkAblationWSPDegeneration (ABL6, §2): on a pure fork-join
// program, SF-Order must degenerate to WSP-Order plus near-free future
// bookkeeping — the two should be close, with WSP-Order as the floor.
func BenchmarkAblationWSPDegeneration(b *testing.B) {
	fib := workload.Fib(16)
	for _, det := range []sforder.Detector{sforder.WSPOrder, sforder.SFOrder} {
		det := det
		for _, mode := range []string{"reach", "full"} {
			mode := mode
			b.Run("fib/"+det.String()+"/"+mode, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					run := fib.Make()
					b.StartTimer()
					res, err := sforder.Run(sforder.Config{
						Detector:         det,
						Serial:           true,
						ReachabilityOnly: mode == "reach",
					}, run.Main)
					if err != nil {
						b.Fatal(err)
					}
					if res.RaceCount != 0 {
						b.Fatal("fib must be race-free")
					}
				}
			})
		}
	}
}

// BenchmarkAblationFastPath (ABL7, §6 future work): full SF-Order
// detection with and without the lock-avoiding access-history path
// (exact strand-local dedup + strand batching). The reported
// lock-acquires metric is the acceptance quantity: with the fast path
// on it must drop by at least 5× on the loop-heavy workloads (mm, hw).
func BenchmarkAblationFastPath(b *testing.B) {
	benches := []*workload.Benchmark{
		workload.MM(64, 16),
		workload.HW(4, 16, 256),
		workload.Sort(20_000, 512),
	}
	for _, bench := range benches {
		bench := bench
		for _, fast := range []bool{false, true} {
			fast := fast
			name := bench.Name + "/fastpath-off"
			if fast {
				name = bench.Name + "/fastpath-on"
			}
			b.Run(name, func(b *testing.B) {
				res := measure(b, bench, engine.Config{Serial: true, LockedHistory: !fast, Stats: obsv.NewRegistry()})
				b.ReportMetric(float64(res.Stats["hist.lock_acquires"]), "lock-acquires")
				b.ReportMetric(float64(res.Stats["hist.fastpath_hits"]), "fastpath-hits")
			})
		}
	}
}

// benchmarkPrograms are the programs of the four BENCHMARK.json workloads
// at benchmark size — bench/ is a module of its own, so its list
// (bench/adapter.go, `workloads`) is repeated here: the nine fixed
// programs, and racy-small's 256 generated ones as a single cell.
func benchmarkPrograms() [][]*workload.Benchmark {
	var progs [][]*workload.Benchmark
	for _, b := range []*workload.Benchmark{
		workload.MM(128, 16), workload.SW(512, 32),
		workload.Sort(100000, 2048), workload.HW(6, 32, 1024), workload.Ferret(64, 1024), workload.KSweep(1024, 4000),
		workload.Spine(5000, 2), workload.Chain(20000, 2), workload.Pipeline(1000, 16, 8),
	} {
		progs = append(progs, []*workload.Benchmark{b})
	}
	racy := make([]*workload.Benchmark, 256)
	for i := range racy {
		pg := progen.New(progen.Config{Seed: 1 + int64(i), MaxDepth: 6, MaxOps: 8, Addrs: 32})
		racy[i] = &workload.Benchmark{Name: "racy-small", Make: func() *workload.Run {
			return &workload.Run{Main: pg.Main(), Verify: func() error { return nil }}
		}}
	}
	return append(progs, racy)
}

// BenchmarkAblationReach (ABL10/ABL11, closed): the English/Hebrew OM
// pair against DePa fork-path cords on the benchmark's own programs, in
// the benchmark's cells — reach and full at one worker, full at P — with
// the zero engine.Config but Reach. It reports the median wall of the
// iterations (ns/op is a mean) and the reach memory. A run that follows
// an OM run in one process inherits its heap and reads ~10% slow, so the
// EXPERIMENTS table takes each substrate from a process of its own:
//
//	go test -c -o sf.test . && for s in om depa; do
//	  ./sf.test -test.run '^$' -test.bench "AblationReach/.*/.*/$s\$" -test.benchtime 10x; done
func BenchmarkAblationReach(b *testing.B) {
	cells := []struct {
		name      string
		reachOnly bool
		workers   int
	}{
		{"reach_t1", true, 1},
		{"full_t1", false, 1},
		{"full_tp", false, harness.DefaultWorkers()},
	}
	for _, runs := range benchmarkPrograms() {
		for _, cell := range cells {
			for _, sub := range []core.Substrate{core.SubstrateOM, core.SubstrateDePa} {
				b.Run(fmt.Sprintf("%s/%s/%s", runs[0].Name, cell.name, sub), func(b *testing.B) {
					cfg := engine.Config{ReachabilityOnly: cell.reachOnly, Workers: cell.workers, Reach: sub}
					walls := make([]time.Duration, b.N)
					var mem int
					for i := range walls {
						mem = 0
						for j, bench := range runs {
							if j%32 == 0 {
								runtime.GC() // as the benchmark does before a timed run
							}
							res, err := harness.Run(bench, cfg)
							if err != nil {
								b.Fatal(err)
							}
							walls[i] += res.Elapsed
							mem += res.ReachMem
						}
					}
					sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
					b.ReportMetric(float64(walls[len(walls)/2])/1e6, "median-ms")
					b.ReportMetric(float64(mem)/1e6, "reach-MB")
				})
			}
		}
	}
}

// BenchmarkAblationBitmapVsHash (ABL3, §4): the reach-only overhead gap
// between SF-Order's bitmaps and F-Order's per-node hash tables on a
// future-heavy random program — the isolated version of the paper's
// explanation for Figure 4's reach rows.
func BenchmarkAblationBitmapVsHash(b *testing.B) {
	// Seed 3 yields ~570 futures at this shape.
	prog := progen.New(progen.Config{Seed: 3, MaxDepth: 7, MaxOps: 10, Addrs: 64})
	for _, det := range []engine.Detector{engine.SFOrder, engine.FOrder} {
		det := det
		b.Run(det.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var tracer sched.Tracer
				var mem func() int
				switch det {
				case engine.SFOrder:
					r := core.New(core.Config{})
					tracer, mem = r, r.MemBytes
				default:
					r := forder.NewReach()
					tracer, mem = r, r.MemBytes
				}
				if _, err := sched.Run(sched.Options{Serial: true, Tracer: tracer}, prog.Main()); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(mem()), "reach-bytes")
				}
			}
		})
	}
}

// BenchmarkReplayScaling (ABL12): offline replay throughput of recorded
// captures as the detection-shard count grows. Each workload is
// recorded once (full online detection with the capture tap attached);
// the capture is then replayed at 1/2/4/8 shards — and at 16 on the
// bigger inputs — with the dag rebuilt on the DePa substrate (frozen
// immutable labels, lock-free queries). Detection work partitions by
// shadow page (a location lives in one page, a page in one shard), so
// entries-max-shard ≈ entries-total/shards certifies a balanced
// partition: the wall-clock curve then tracks available cores,
// machine-independently. The race verdict is checked identical
// at every width (also pinned by TestReplayDeterministicAcrossWorkers).
func BenchmarkReplayScaling(b *testing.B) {
	record := func(bench *workload.Benchmark) *trace.Capture {
		b.Helper()
		raw, err := harness.RecordCapture(bench, harness.DefaultWorkers())
		if err != nil {
			b.Fatal(err)
		}
		c, err := trace.Load(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	type entry struct {
		label   string
		bench   *workload.Benchmark
		workers []int
	}
	entries := []entry{
		{"mm", workload.MM(64, 16), []int{1, 2, 4, 8}},
		{"sort", workload.Sort(20_000, 512), []int{1, 2, 4, 8}},
		{"sw", workload.SW(128, 16), []int{1, 2, 4, 8}},
		{"ksweep", workload.KSweep(256, 2000), []int{1, 2, 4, 8}},
		// Bigger inputs, wider sweep: enough per-location work that 16
		// shards still amortize their spawn cost.
		{"mm-large", workload.MM(128, 16), []int{1, 16}},
		{"sort-large", workload.Sort(100_000, 2048), []int{1, 16}},
	}
	for _, e := range entries {
		c := record(e.bench)
		for _, w := range e.workers {
			w := w
			b.Run(fmt.Sprintf("%s/w%d", e.label, w), func(b *testing.B) {
				var last *replay.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := replay.Run(c, replay.Options{Workers: w, Reach: core.SubstrateDePa})
					if err != nil {
						b.Fatal(err)
					}
					if res.RaceCount != 0 {
						b.Fatalf("benchmark must replay race-free, got %d races", res.RaceCount)
					}
					last = res
				}
				b.ReportMetric(float64(last.Entries), "entries-total")
				b.ReportMetric(float64(last.MaxShardEntries), "entries-max-shard")
				b.ReportMetric(float64(last.Queries), "queries")
			})
		}
	}
}

// BenchmarkReplayRebuild (ABL13): the replay rebuild on both substrates,
// each in event order through trace.Rebuild, loaded (replay.Run on a
// loaded capture) and streamed (replay.RunStream on its bytes), over the
// dag-futures captures (spine, chain, pipeline), mm, and 64 generated
// programs, each recorded at one worker. rebuild-ns is Result.Rebuild per
// op, the loader's time apart from handing blocks out, and wall-ns the
// replay's whole wall (Detect + Merge), which contains it since the phases
// overlap; both are summed over the 64 programs in the progen cells. Detection runs on 2
// shards throughout.
func BenchmarkReplayRebuild(b *testing.B) {
	record := func(bench *workload.Benchmark) []byte {
		raw, err := harness.RecordCapture(bench, 1)
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}
	sets := []struct {
		label string
		raws  [][]byte
	}{
		{"spine", [][]byte{record(workload.Spine(5000, 2))}},
		{"chain", [][]byte{record(workload.Chain(20000, 2))}},
		{"pipeline", [][]byte{record(workload.Pipeline(1000, 16, 8))}},
		{"mm", [][]byte{record(workload.MM(128, 16))}},
		{"progen", nil},
	}
	for seed := int64(0); seed < 64; seed++ {
		prog := progen.New(progen.Config{Seed: seed, MaxDepth: 6, MaxOps: 8, Addrs: 32}).Main()
		sets[4].raws = append(sets[4].raws, record(&workload.Benchmark{Name: "progen", Make: func() *workload.Run {
			return &workload.Run{Main: prog, Verify: func() error { return nil }}
		}}))
	}
	for _, set := range sets {
		caps := make([]*trace.Capture, len(set.raws))
		for i, raw := range set.raws {
			var err error
			if caps[i], err = trace.Load(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
		for _, sub := range []core.Substrate{core.SubstrateOM, core.SubstrateDePa} {
			opts := replay.Options{Workers: 2, Reach: sub}
			for _, stream := range []bool{false, true} {
				mode := "loaded"
				if stream {
					mode = "stream"
				}
				b.Run(fmt.Sprintf("%s/%v/%s", set.label, sub, mode), func(b *testing.B) {
					var rebuild, wall time.Duration
					for i := 0; i < b.N; i++ {
						for j, c := range caps {
							var res *replay.Result
							var err error
							if stream {
								res, err = replay.RunStream(bytes.NewReader(set.raws[j]), opts)
							} else {
								res, err = replay.Run(c, opts)
							}
							if err != nil {
								b.Fatal(err)
							}
							rebuild += res.Rebuild
							wall += res.Detect + res.Merge
						}
					}
					b.ReportMetric(float64(rebuild.Nanoseconds())/float64(b.N), "rebuild-ns")
					b.ReportMetric(float64(wall.Nanoseconds())/float64(b.N), "wall-ns")
				})
			}
		}
	}
}

// BenchmarkCheckStructure isolates the cost of Config.CheckStructure on
// a future-dense chain (one create+get per link, no detector): "off" is
// the default engine — the checked-mode plumbing must cost nothing there
// — and "on" pays the per-operation site capture and visibility-horizon
// updates of the runtime structured-futures checker.
func BenchmarkCheckStructure(b *testing.B) {
	const links = 256
	chain := func(t *sforder.Task) {
		prev := t.Create(func(*sforder.Task) any { return 0 })
		for f := 1; f < links; f++ {
			p := prev
			prev = t.Create(func(c *sforder.Task) any { return c.Get(p).(int) + 1 })
		}
		if got := t.Get(prev).(int); got != links-1 {
			panic("checkstructure chain: bad value")
		}
	}
	for _, check := range []bool{false, true} {
		name := "off"
		if check {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sforder.Config{Detector: sforder.NoDetector, Serial: true, CheckStructure: check}
				if _, err := sforder.Run(cfg, chain); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
