package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"sforder/internal/bitset"
	"sforder/internal/dag"
	"sforder/internal/depa"
	"sforder/internal/progen"
	"sforder/internal/sched"
	"sforder/internal/workload"
)

// TestAccountingSizes pins the per-strand records to the real struct
// layouts. The old constant (nodeSize=40) had drifted; the sizes are
// unsafe.Sizeof-derived and this test derives the expected values from
// the pointer size, pinning the 64-bit ones, so growth fails loudly: the
// header (the gp pointer), the OM record (the header padded to the items'
// 8-byte alignment plus two 24-byte om.Items: 56 bytes on every platform)
// and the DePa record (header plus the label pointer). The gp/cp set
// header is pinned with them: MemBytes counts a set's window and leaves
// its header out, so on 64-bit platforms the header may not outgrow the
// flat bitmap's 24-byte slice header.
func TestAccountingSizes(t *testing.T) {
	if omNodeSize != int(unsafe.Sizeof(omNode{})) || depaNodeSize != int(unsafe.Sizeof(depaNode{})) {
		t.Errorf("record sizes %d/%d != sizeof(omNode) %d / sizeof(depaNode) %d",
			omNodeSize, depaNodeSize, unsafe.Sizeof(omNode{}), unsafe.Sizeof(depaNode{}))
	}
	const ptr = unsafe.Sizeof(uintptr(0))
	for _, c := range []struct {
		name              string
		got, want, want64 uintptr
	}{
		{"node", unsafe.Sizeof(node{}), ptr, 8},
		{"omNode", unsafe.Sizeof(omNode{}), max(ptr, 8) + 2*24, 56},
		{"depaNode", unsafe.Sizeof(depaNode{}), 2 * ptr, 16},
	} {
		if c.got != c.want || ptr == 8 && c.got != c.want64 {
			t.Errorf("%s grew: %d bytes, expected %d (%d on 64-bit platforms)", c.name, c.got, c.want, c.want64)
		}
	}
	if bitset.RunSetHeaderBytes > int(16+ptr) || ptr == 8 && bitset.RunSetHeaderBytes > 24 {
		t.Errorf("set header grew: %d bytes, expected ≤ %d (24 on 64-bit platforms)", bitset.RunSetHeaderBytes, 16+ptr)
	}
	if got := unsafe.Sizeof(futMeta{}); got > 2*ptr {
		t.Errorf("futMeta grew: %d bytes, expected ≤ %d (cp and the shared child cp)", got, 2*ptr)
	}
}

// TestMemBytesTracksArenas holds MemBytes against what the lanes really
// allocated. The counted record bytes are strands × record size, and
// every counted byte that lives in a slab (records, DePa labels, set
// windows; OM buckets are heap) is in ArenaBytes, which exceeds them by
// no more than the uncounted future records plus one part-filled chunk
// per pool per lane (the workers' and the shared one). The programs are
// the dag-futures workload's, and at one worker the zero Config's reach
// bytes over the three must be at most 0.6× OM's: DePa ships because it
// takes about 44% off them (EXPERIMENTS NODEREC).
func TestMemBytesTracksArenas(t *testing.T) {
	// A chunk holds 256 strand records or 64 future records here, and
	// 256 cord labels or 256 frozen chunks in internal/depa. These
	// programs' sets are all single runs, so no window page is drawn.
	metaSize := int64(unsafe.Sizeof(futMeta{}))
	labelChunks := int64(256*unsafe.Sizeof(depa.Label{})) + int64(256*depa.ChunkBytes)
	oneWorker := map[Substrate]int64{} // summed MemBytes at one worker
	for _, cfg := range []Config{{Reach: SubstrateOM}, {}} {
		sub := cfg.Reach
		for _, b := range []*workload.Benchmark{
			workload.Spine(5000, 2), workload.Chain(20000, 2), workload.Pipeline(1000, 16, 8),
		} {
			for _, workers := range []int{1, 2} {
				r := New(cfg)
				run := b.Make()
				counts, err := sched.Run(sched.Options{Workers: workers, Tracer: r}, run.Main)
				if err != nil {
					t.Fatal(err)
				}
				if err := run.Verify(); err != nil {
					t.Fatal(err)
				}
				strands, size := int64(counts.Strands), int64(r.sub.nodeSize())
				sets := r.setMem.Load()
				if records := int64(r.MemBytes()) - int64(r.sub.memBytes()) - sets; records != strands*size {
					t.Errorf("%v %s %d workers: %d record bytes counted, want %d strands × %d B",
						sub, b.Name, workers, records, strands, size)
				}
				slabbed, chunks := strands*size+sets, 256*size+64*metaSize
				if sub == SubstrateDePa {
					slabbed += int64(r.sub.memBytes())
					chunks += labelChunks
				}
				lanes := int64(workers + 1)
				arena, limit := r.ArenaBytes(), slabbed+int64(counts.Futures)*metaSize+lanes*chunks
				t.Logf("%v %s %d workers: %d strands, %d futures: counted %d B in slabs, arenas %d B",
					sub, b.Name, workers, strands, counts.Futures, slabbed, arena)
				if arena < slabbed || arena > limit {
					t.Errorf("%v %s %d workers: arenas hold %d B, want [%d, %d]",
						sub, b.Name, workers, arena, slabbed, limit)
				}
				if workers == 1 {
					oneWorker[sub] += int64(r.MemBytes())
				}
				r.Release()
			}
		}
	}
	zero, om := oneWorker[Config{}.Reach], oneWorker[SubstrateOM]
	t.Logf("reach bytes at one worker: zero Config %d B, OM %d B (%.3f×)", zero, om, float64(zero)/float64(om))
	if 10*zero > 6*om {
		t.Errorf("zero Config holds %d B of reach at one worker, OM %d B: want at most 0.6×", zero, om)
	}
}

// setBytes runs b under a fresh Reach and returns what its gp/cp sets
// cost: counted payload plus one header a set.
func setBytes(t *testing.T, b *workload.Benchmark, workers int) int64 {
	t.Helper()
	r := New(Config{})
	defer r.Release()
	run := b.Make()
	if _, err := sched.Run(sched.Options{Workers: workers, Tracer: r}, run.Main); err != nil {
		t.Fatal(err)
	}
	if err := run.Verify(); err != nil {
		t.Fatal(err)
	}
	return r.setMem.Load() + r.setCount()*int64(bitset.RunSetHeaderBytes)
}

// TestSetMemoryGrowsLinearly: on the get-chain shapes the k² of Theorem
// 3.14 is gone — twice the futures cost about twice the set memory, not
// four times (the flat bitmap's counted bytes grew 3.7× from chain(1000)
// to chain(2000)).
func TestSetMemoryGrowsLinearly(t *testing.T) {
	const k = 1000
	shapes := []struct {
		name string
		make func(k int) *workload.Benchmark
	}{
		{"chain", func(k int) *workload.Benchmark { return workload.Chain(k, 1) }},
		{"pipeline", func(k int) *workload.Benchmark { return workload.Pipeline(8, k/8, 1) }},
		{"ksweep", func(k int) *workload.Benchmark { return workload.KSweep(k, 2) }},
	}
	for _, shape := range shapes {
		for _, workers := range []int{1, 4} {
			small, big := setBytes(t, shape.make(k), workers), setBytes(t, shape.make(2*k), workers)
			if small == 0 || float64(big) > 2.2*float64(small) {
				t.Errorf("%s, %d workers: %d futures cost %d B of sets, %d cost %d B (%.2f×, want ≤ 2.2×)",
					shape.name, workers, k, small, 2*k, big, float64(big)/float64(small))
			}
		}
	}
}

// TestSetsNeverExceedFlat walks every gp and cp set of generated
// programs (the dag shapes of internal/detect's fuzzShapes; addresses
// play no part in a future-id set): none counts more than the flat
// bitmap of its members would, and the gauges cover them all (plus the
// intermediate unions of a sync with several divergent children, which
// no strand keeps).
func TestSetsNeverExceedFlat(t *testing.T) {
	for _, cfg := range []progen.Config{{MaxDepth: 4, MaxOps: 8}, {MaxDepth: 3, MaxOps: 8}} {
		for seed := int64(0); seed < 40; seed++ {
			cfg.Seed = seed
			r := New(Config{})
			rec := dag.NewRecorder()
			if _, err := sched.Run(sched.Options{Serial: true, Tracer: sched.MultiTracer{r, rec}}, progen.New(cfg).Main()); err != nil {
				t.Fatal(err)
			}
			seen := map[*bitset.RunSet]bool{nil: true}
			var counted int64
			check := func(what string, s *bitset.RunSet) {
				if seen[s] {
					return
				}
				seen[s] = true
				ids := s.IDs()
				if flat := 8 * (ids[len(ids)-1]/64 + 1); s.MemBytes() > flat {
					t.Fatalf("depth %d seed %d: %s %v counts %d B, flat %d B", cfg.MaxDepth, seed, what, s, s.MemBytes(), flat)
				}
				counted += int64(s.MemBytes())
			}
			for _, s := range rec.Strands() {
				check("gp", nodeOf(s).gp)
				check("cp", metaOf(s.Fut).cp)
				check("child cp", metaOf(s.Fut).kids.Load())
			}
			if got := r.setMem.Load(); got < counted {
				t.Fatalf("depth %d seed %d: reach.set_mem_bytes %d, sets own %d", cfg.MaxDepth, seed, got, counted)
			}
			if got, distinct := r.setCount(), int64(len(seen)-1); got < distinct {
				t.Fatalf("depth %d seed %d: reach.sets %d, distinct sets %d", cfg.MaxDepth, seed, got, distinct)
			}
		}
	}
}

// TestSharedChildCPHammer: strands of one future creating in parallel
// race to publish that future's child cp; every child must end up with
// the same pointer, and the set is counted once. The strands of a
// parent line up before their first create (for a few milliseconds at
// most — thieves usually pick all eight up), so the CAS is contended.
// Run under -race in CI.
func TestSharedChildCPHammer(t *testing.T) {
	const parents, strands, creates = 40, 8, 6
	r := New(Config{})
	var mu sync.Mutex
	kids := make(map[*sched.FutureTask][]*sched.FutureTask) // parent → children
	_, err := sched.Run(sched.Options{Workers: strands, Tracer: r}, func(t *sched.Task) {
		for p := 0; p < parents; p++ {
			f := t.Create(func(c *sched.Task) any {
				var arrived atomic.Int32
				lineUp := make(chan struct{})
				for s := 0; s < strands; s++ {
					c.Spawn(func(ch *sched.Task) {
						if arrived.Add(1) == strands {
							close(lineUp)
						}
						select {
						case <-lineUp:
						case <-time.After(5 * time.Millisecond):
						}
						var mine []*sched.FutureTask
						for i := 0; i < creates; i++ {
							g := ch.Create(func(*sched.Task) any { return nil })
							mine = append(mine, g.Task())
							ch.Get(g)
						}
						mu.Lock()
						kids[c.FutureTask()] = append(kids[c.FutureTask()], mine...)
						mu.Unlock()
					})
				}
				c.Sync()
				return nil
			})
			t.Get(f)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != parents {
		t.Fatalf("%d parents recorded, want %d", len(kids), parents)
	}
	for parent, children := range kids {
		want := metaOf(parent).kids.Load()
		if len(children) != strands*creates || want == nil {
			t.Fatalf("future %d: %d children, shared cp %v", parent.ID, len(children), want)
		}
		if ids := fmt.Sprint(want.IDs()); ids != fmt.Sprint([]int{0, parent.ID}) {
			t.Fatalf("future %d: child cp %s", parent.ID, ids)
		}
		for _, g := range children {
			if metaOf(g).cp != want {
				t.Fatalf("future %d: child %d holds its own cp %v", parent.ID, g.ID, metaOf(g).cp)
			}
		}
	}
	// One child cp for the root and one per parent, whoever won.
	if got := r.cpSets.Load(); got != 1+parents {
		t.Errorf("%d child cp sets counted, want %d: one counted more than once", got, 1+parents)
	}
}
