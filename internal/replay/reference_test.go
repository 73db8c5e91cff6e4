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

// entry is one tapped access, as the detector handed it to the recorder.
type entry struct {
	strand, addr uint64
	kind         detect.AccessKind
}

// logTap taps the recorder and keeps every entry it passes on, in order.
type logTap struct {
	rec *trace.Recorder
	log []entry
}

func (l *logTap) TapAccesses(s *sched.Strand, addrs []uint64, kinds []detect.AccessKind) {
	for i, addr := range addrs {
		l.log = append(l.log, entry{s.ID, addr, kinds[i]})
	}
	l.rec.TapAccesses(s, addrs, kinds)
}

// runReference rebuilds c's dag in event order and runs the reference over
// the tapped entries in tap order.
func runReference(t *testing.T, c *trace.Capture, log []entry) (racy []uint64, count uint64) {
	t.Helper()
	reach := core.New(core.Config{})
	defer reach.Release()
	strands := map[uint64]*sched.Strand{} // every tapped entry's strand has a block
	if err := (&trace.Rebuild{}).Run(c, reach, func(s *sched.Strand, _ *trace.AccessBlock) { strands[s.ID] = s }); err != nil {
		t.Fatal(err)
	}
	ref := &reference{locs: map[uint64]*refLoc{}, racy: map[uint64]bool{}}
	for _, e := range log {
		ref.apply(reach, strands[e.strand], e.addr, e.kind)
	}
	for a := range ref.racy {
		racy = append(racy, a)
	}
	slices.Sort(racy)
	return racy, ref.count
}

// forkJoin crafts a capture of one fork-join region — root strand 0 spawns
// child 1 beside continuation 2, and 3 is the strand after their sync —
// with the access lists the callback taps, each where its strand is live:
// 0 precedes all, 1 and 2 are parallel, 3 follows all. The callback names
// the strands in that order. It returns the entries tapped too.
func forkJoin(t *testing.T, tap func(block func(strand uint64, entries ...uint64))) ([]byte, []entry) {
	t.Helper()
	var buf bytes.Buffer
	lt := &logTap{rec: trace.NewRecorder(&buf)}
	f0 := &sched.FutureTask{ID: 0}
	s := make([]*sched.Strand, 4)
	for i := range s {
		s[i] = &sched.Strand{ID: uint64(i), Fut: f0}
	}
	lt.rec.OnRoot(s[0])
	// The events between the phases: 0 runs, then 1 and 2, then 3.
	phase := 0
	advance := func(to int) {
		for ; phase < to; phase++ {
			if phase == 0 {
				lt.rec.OnSpawn(s[0], s[1], s[2], s[3])
			} else {
				lt.rec.OnReturn(s[1])
				lt.rec.OnSync(s[2], s[3], []*sched.Strand{s[1]})
			}
		}
	}
	// An entry is its address shifted left once, with the low bit set for
	// a write: r(a), w(a) below.
	tap(func(strand uint64, entries ...uint64) {
		advance([]int{0, 1, 1, 2}[strand])
		addrs := make([]uint64, len(entries))
		kinds := make([]detect.AccessKind, len(entries))
		for i, e := range entries {
			addrs[i], kinds[i] = e>>1, detect.AccessKind(e&1)
		}
		lt.TapAccesses(s[strand], addrs, kinds)
	})
	advance(2)
	if err := lt.rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), lt.log
}

// r and w are a read and a write of addr as forkJoin's block takes them.
func r(addr uint64) uint64 { return addr << 1 }
func w(addr uint64) uint64 { return addr<<1 | 1 }

// lockedCapture records a generated program under the locked history
// (FastPath off) with the recorder as its tap: one entry per tap, every
// repeat of a strand kept.
func lockedCapture(t *testing.T, seed int64) ([]byte, []entry) {
	t.Helper()
	var buf bytes.Buffer
	lt := &logTap{rec: trace.NewRecorder(&buf)}
	reach := core.New(core.Config{})
	defer reach.Release()
	hist := detect.NewHistory(detect.Options{Reach: reach, Tap: lt})
	p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 9, Addrs: 600, MaxRun: 40})
	if _, err := sched.Run(sched.Options{Serial: true, Tracer: reach, Aux: lt.rec, Checker: hist}, p.Main()); err != nil {
		t.Fatal(err)
	}
	if err := lt.rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), lt.log
}

// TestCraftedCapturesMatchReference is the check on the recorder's fold:
// it taps the lists no strand buffer would hand over — lists that straddle
// pages, list a write before a read of the same address, repeat an entry,
// carry one entry each — and a racing pair on two pages that different
// shards own. Barriered and streamed, at every shard count, the replay's
// racy set and race count must be the per-address reference's over the
// entries in tap order: the recorder's page and slot cuts keep exact
// per-address order.
func TestCraftedCapturesMatchReference(t *testing.T) {
	const pg = 1 << detect.PageBits
	if ShardOf(0, 2) == ShardOf(1, 2) {
		t.Fatal("pages 0 and 1 share a shard; pick another pair")
	}
	type tapped struct {
		raw []byte
		log []entry
	}
	captures := map[string]tapped{}
	for name, tap := range map[string]func(func(uint64, ...uint64)){
		"straddles two pages": func(block func(uint64, ...uint64)) {
			block(0, w(pg-1), w(pg))
			block(1, w(pg-2), w(pg-1), w(pg), r(pg+1), r(2*pg), w(3))
			block(2, r(pg-1), w(pg+1), r(pg), w(2*pg), w(pg-2))
			block(3, r(pg-1), w(pg))
		},
		"write listed before read": func(block func(uint64, ...uint64)) {
			block(2, w(10))
			block(1, w(10), r(10)) // one race; read first, the read would race too
		},
		"repeated read": func(block func(uint64, ...uint64)) {
			block(2, w(20))
			block(1, r(20), r(20)) // two races; as a set of slots, one
		},
		"repeats and reversals mixed": func(block func(uint64, ...uint64)) {
			block(2, w(20), w(21), r(22), w(23))
			block(1, r(20), r(20), w(21), w(21), r(21), r(21), w(22), r(22), w(22), w(23), r(23), w(23))
			block(2, r(20), w(20), w(20), r(23), r(23))
			block(3, w(20), r(20), r(21), w(22))
		},
		"pair on two shards": func(block func(uint64, ...uint64)) {
			block(1, w(1), r(pg+1))
			block(2, r(1), w(pg+1))
		},
		"no accesses": func(func(uint64, ...uint64)) {},
	} {
		raw, log := forkJoin(t, tap)
		captures[name] = tapped{raw, log}
	}
	for seed := int64(1); seed < 5; seed++ {
		raw, log := lockedCapture(t, seed)
		captures[fmt.Sprint("one entry per tap, seed ", seed)] = tapped{raw, log}
	}
	for name, tc := range captures {
		c, err := trace.Load(bytes.NewReader(tc.raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Entries != uint64(len(tc.log)) {
			t.Fatalf("%s: %d entries tapped, the capture holds %d", name, len(tc.log), c.Entries)
		}
		wantRacy, wantCount := runReference(t, c, tc.log)
		if wantCount == 0 && name != "no accesses" {
			t.Fatalf("%s: the reference finds no race; the capture tests nothing", name)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			for _, sub := range []core.Substrate{core.SubstrateOM, core.SubstrateDePa} {
				opts := Options{Workers: workers, Reach: sub, MaxRaces: 1 << 20}
				loaded, err := Run(c, opts)
				if err != nil {
					t.Fatalf("%s/%dw: %v", name, workers, err)
				}
				streamed, err := RunStream(bytes.NewReader(tc.raw), opts)
				if err != nil {
					t.Fatalf("%s/%dw streamed: %v", name, workers, err)
				}
				for how, res := range map[string]*Result{"loaded": loaded, "streamed": streamed} {
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
