package replay

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/progen"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// refLoc is one location's shadow state in the reference detector.
type refLoc struct {
	lastWriter *sched.Strand
	readers    []*sched.Strand
}

// reference is the per-address detector replay's shards ran before they
// became detect.History values, kept as the thing the shards must equal:
// a map from address to last writer and reader list, one entry at a time
// in file order, no pages, no slot sets, no shared states.
type reference struct {
	locs  map[uint64]*refLoc
	racy  map[uint64]bool
	count uint64
}

func (ref *reference) report(addr uint64) {
	ref.count++
	ref.racy[addr] = true
}

// apply runs the online history's per-location algorithm (ReadersAll
// policy) on one entry.
func (ref *reference) apply(reach *core.Reach, s *sched.Strand, addr uint64, kind detect.AccessKind) {
	l := ref.locs[addr]
	if l == nil {
		l = &refLoc{}
		ref.locs[addr] = l
	}
	if lw := l.lastWriter; lw != nil && lw != s && !reach.PrecedesUncounted(lw, s) {
		ref.report(addr)
	}
	if kind == detect.AccessRead {
		if n := len(l.readers); n == 0 || l.readers[n-1] != s {
			l.readers = append(l.readers, s)
		}
		return
	}
	for _, rd := range l.readers {
		if rd != s && !reach.PrecedesUncounted(rd, s) {
			ref.report(addr)
		}
	}
	l.readers = l.readers[:0]
	l.lastWriter = s
}

// runReference rebuilds c's dag in event order and runs the reference over
// its entries in file order.
func runReference(t *testing.T, c *trace.Capture) (racy []uint64, count uint64) {
	t.Helper()
	reach, st := core.NewReach(), &store{}
	defer reach.Release()
	for i := range c.Events {
		if err := applyEvent(st, reach, &c.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	ref := &reference{locs: map[uint64]*refLoc{}, racy: map[uint64]bool{}}
	for _, b := range c.Blocks {
		for j, addr := range b.Addrs {
			ref.apply(reach, st.need(b.Strand), addr, b.Kinds[j])
		}
	}
	for a := range ref.racy {
		racy = append(racy, a)
	}
	slices.Sort(racy)
	return racy, ref.count
}

// forkJoin crafts a capture of one fork-join region — root strand 0 spawns
// child 1 beside continuation 2, and 3 is the strand after their sync —
// with the access blocks the callback taps in between: 0 precedes all, 1
// and 2 are parallel, 3 follows all.
func forkJoin(t *testing.T, tap func(block func(strand uint64, entries ...uint64))) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	f0 := &sched.FutureTask{ID: 0}
	s := make([]*sched.Strand, 4)
	for i := range s {
		s[i] = &sched.Strand{ID: uint64(i), Fut: f0}
	}
	rec.OnRoot(s[0])
	rec.OnSpawn(s[0], s[1], s[2], s[3])
	// An entry is its address shifted left once, with the low bit set for
	// a write: r(a), w(a) below.
	tap(func(strand uint64, entries ...uint64) {
		addrs := make([]uint64, len(entries))
		kinds := make([]detect.AccessKind, len(entries))
		for i, e := range entries {
			addrs[i], kinds[i] = e>>1, detect.AccessKind(e&1)
		}
		rec.TapAccesses(s[strand], addrs, kinds)
	})
	rec.OnReturn(s[1])
	rec.OnSync(s[2], s[3], []*sched.Strand{s[1]})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// r and w are a read and a write of addr as forkJoin's block takes them.
func r(addr uint64) uint64 { return addr << 1 }
func w(addr uint64) uint64 { return addr<<1 | 1 }

// lockedCapture records a generated program under the locked history
// (FastPath off) with the recorder as its tap: one entry per block, every
// repeat of a strand kept.
func lockedCapture(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	reach := core.NewReach()
	defer reach.Release()
	hist := detect.NewHistory(detect.Options{Reach: reach, Tap: rec})
	p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 9, Addrs: 600, MaxRun: 40})
	if _, err := sched.Run(sched.Options{Serial: true, Tracer: reach, Aux: rec, Checker: hist}, p.Main()); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCraftedCapturesMatchReference feeds replay the captures no strand
// buffer would write — blocks that straddle pages, list a write before a
// read of the same address, repeat an entry, carry one entry each — and a
// racing pair on two pages that different shards own. Barriered and
// streamed, at every shard count, the racy set and the race count must be
// the per-address reference's: the dispatcher's page cuts and the shard's
// slot cuts keep exact per-address file order.
func TestCraftedCapturesMatchReference(t *testing.T) {
	const pg = 1 << detect.PageBits
	if ShardOf(1, 2) == ShardOf(pg+1, 2) {
		t.Fatal("pages 0 and 1 share a shard; pick another pair")
	}
	captures := map[string][]byte{
		"straddles two pages": forkJoin(t, func(block func(uint64, ...uint64)) {
			block(0, w(pg-1), w(pg))
			block(1, w(pg-2), w(pg-1), w(pg), r(pg+1), r(2*pg), w(3))
			block(2, r(pg-1), w(pg+1), r(pg), w(2*pg), w(pg-2))
			block(3, r(pg-1), w(pg))
		}),
		"write listed before read": forkJoin(t, func(block func(uint64, ...uint64)) {
			block(2, w(10))
			block(1, w(10), r(10)) // one race; read first, the read would race too
		}),
		"repeated read": forkJoin(t, func(block func(uint64, ...uint64)) {
			block(2, w(20))
			block(1, r(20), r(20)) // two races; as a set of slots, one
		}),
		"repeats and reversals mixed": forkJoin(t, func(block func(uint64, ...uint64)) {
			block(2, w(20), w(21), r(22), w(23))
			block(1, r(20), r(20), w(21), w(21), r(21), r(21), w(22), r(22), w(22), w(23), r(23), w(23))
			block(2, r(20), w(20), w(20), r(23), r(23))
			block(3, w(20), r(20), r(21), w(22))
		}),
		"pair on two shards": forkJoin(t, func(block func(uint64, ...uint64)) {
			block(1, w(1), r(pg+1))
			block(2, r(1), w(pg+1))
		}),
		"no accesses": forkJoin(t, func(func(uint64, ...uint64)) {}),
	}
	for seed := int64(1); seed < 5; seed++ {
		captures[fmt.Sprint("one entry per block, seed ", seed)] = lockedCapture(t, seed)
	}
	for name, raw := range captures {
		c, err := trace.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantRacy, wantCount := runReference(t, c)
		if wantCount == 0 && name != "no accesses" {
			t.Fatalf("%s: the reference finds no race; the capture tests nothing", name)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			for _, sub := range []core.Substrate{core.SubstrateOM, core.SubstrateDePa} {
				opts := Options{Workers: workers, Reach: sub, MaxRaces: 1 << 20}
				barriered, err := Run(c, opts)
				if err != nil {
					t.Fatalf("%s/%dw: %v", name, workers, err)
				}
				streamed, err := RunStream(bytes.NewReader(raw), opts)
				if err != nil {
					t.Fatalf("%s/%dw streamed: %v", name, workers, err)
				}
				for how, res := range map[string]*Result{"barriered": barriered, "streamed": streamed} {
					if !slices.Equal(res.RacyAddrs, wantRacy) || res.RaceCount != wantCount {
						t.Fatalf("%s/%dw %s: racy %v, %d races; the reference %v, %d",
							name, workers, how, res.RacyAddrs, res.RaceCount, wantRacy, wantCount)
					}
					if uint64(len(res.Races)) != wantCount || res.Entries != c.Entries {
						t.Fatalf("%s/%dw %s: %d records of %d races, %d of %d entries",
							name, workers, how, len(res.Races), wantCount, res.Entries, c.Entries)
					}
				}
			}
		}
	}
}
