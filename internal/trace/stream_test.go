package trace_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"sforder/internal/detect"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// TestStreamMatchesLoad: the incremental decoder yields exactly the
// items and totals Load produces, in the same order.
func TestStreamMatchesLoad(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		raw, _ := record(t, seed)
		c, err := trace.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		st, err := trace.OpenStream(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var events []trace.Event
		var blocks []trace.AccessBlock
		for {
			ev, blk, err := st.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if ev != nil {
				events = append(events, *ev)
			} else {
				blocks = append(blocks, *blk)
			}
		}
		if len(events) != len(c.Events) || len(blocks) != len(c.Blocks) {
			t.Fatalf("seed %d: stream %d/%d items, load %d/%d", seed, len(events), len(blocks), len(c.Events), len(c.Blocks))
		}
		for i := range events {
			a, b := events[i], c.Events[i]
			sinksEq := len(a.Sinks) == len(b.Sinks)
			for j := 0; sinksEq && j < len(a.Sinks); j++ {
				sinksEq = a.Sinks[j] == b.Sinks[j]
			}
			if a.Op != b.Op || a.U != b.U || a.A != b.A || a.B != b.B ||
				a.Placeholder != b.Placeholder || a.Fut != b.Fut || a.FutParent != b.FutParent || !sinksEq {
				t.Fatalf("seed %d: event %d differs: %+v vs %+v", seed, i, a, b)
			}
		}
		for i := range blocks {
			if blocks[i] != c.Blocks[i] {
				t.Fatalf("seed %d: block %d differs", seed, i)
			}
		}
		if st.Strands() != c.Strands || st.Futures() != c.Futures ||
			st.Entries() != c.Entries || st.Bytes() != c.Bytes {
			t.Fatalf("seed %d: stream totals %d/%d/%d/%d, load %d/%d/%d/%d", seed,
				st.Strands(), st.Futures(), st.Entries(), st.Bytes(),
				c.Strands, c.Futures, c.Entries, c.Bytes)
		}
	}
}

// TestStreamRejectsTruncation: cutting a capture anywhere after the
// header makes Next error instead of returning io.EOF.
func TestStreamRejectsTruncation(t *testing.T) {
	raw, _ := record(t, 5)
	for _, cut := range []int{len(raw) - 1, len(raw) - 3, len(raw) / 2, 20} {
		st, err := trace.OpenStream(bytes.NewReader(raw[:cut]))
		if err != nil {
			continue // cut inside the header: also fine
		}
		for {
			_, _, err = st.Next()
			if err != nil {
				break
			}
		}
		if err == io.EOF {
			t.Errorf("cut at %d: stream ended cleanly", cut)
		}
	}
}

// TestLoadRejectsBlockUnknownStrand is the hardening satellite: an
// access block naming a strand no structure event declared must fail at
// decode time — before the bogus id can size replay state — not load
// silently.
func TestLoadRejectsBlockUnknownStrand(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	f0 := &sched.FutureTask{ID: 0}
	rec.OnRoot(&sched.Strand{ID: 0, Fut: f0})
	// A block for strand 900, which no structure event ever mentions.
	rec.TapAccesses(&sched.Strand{ID: 900, Fut: f0},
		[]uint64{1, 2}, []detect.AccessKind{detect.AccessRead, detect.AccessWrite})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := trace.Load(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("capture with an undeclared block strand loaded")
	}
	if !strings.Contains(err.Error(), "before any structure event") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestLoadBlockAfterIntroduction: the same block is fine once the
// strand has been declared — the validation keys on structure events,
// not on block order among themselves.
func TestLoadBlockAfterIntroduction(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	f0 := &sched.FutureTask{ID: 0}
	root := &sched.Strand{ID: 0, Fut: f0}
	rec.OnRoot(root)
	rec.OnSpawn(root, &sched.Strand{ID: 1, Fut: f0}, &sched.Strand{ID: 2, Fut: f0}, &sched.Strand{ID: 3, Fut: f0})
	rec.TapAccesses(&sched.Strand{ID: 1, Fut: f0}, []uint64{7}, []detect.AccessKind{detect.AccessWrite})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := trace.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if c.Strands != 4 || c.Entries != 1 {
		t.Fatalf("strands %d entries %d, want 4/1", c.Strands, c.Entries)
	}
}

// TestIndexRoundTrip: the path index of a genuine capture covers every
// strand, is topologically ordered, and agrees with the events on
// parentage.
func TestIndexRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		raw, counts := record(t, seed)
		c, err := trace.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.Index()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if uint64(len(idx.Order)) != counts.Strands {
			t.Fatalf("seed %d: indexed %d strands, engine ran %d", seed, len(idx.Order), counts.Strands)
		}
		for j, id := range idx.Order {
			if idx.Pos[id] != int32(j) {
				t.Fatalf("seed %d: Pos[%d] = %d, want %d", seed, id, idx.Pos[id], j)
			}
			if p := idx.Parent[j]; p >= int32(j) {
				t.Fatalf("seed %d: strand at %d has parent at %d (not topological)", seed, j, p)
			} else if p < 0 && idx.Role[j] != trace.RoleRoot {
				t.Fatalf("seed %d: non-root strand at %d has no parent", seed, j)
			}
		}
		if idx.Role[0] != trace.RoleRoot {
			t.Fatalf("seed %d: first introduction is %v, want root", seed, idx.Role[0])
		}
	}
}

// TestIndexRejectsCorrupt: the index pass rejects the structural
// corruptions the serial rebuild rejects, plus the sync-names-unplaced-
// strand case (which the serial path could only hit as a panic).
func TestIndexRejectsCorrupt(t *testing.T) {
	f0 := &sched.FutureTask{ID: 0}
	s := func(id uint64) *sched.Strand { return &sched.Strand{ID: id, Fut: f0} }
	mk := func(drive func(*trace.Recorder)) *trace.Capture {
		var buf bytes.Buffer
		rec := trace.NewRecorder(&buf)
		drive(rec)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		c, err := trace.Load(&buf)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		return c
	}
	cases := map[string]*trace.Capture{
		"no root": mk(func(r *trace.Recorder) {
			r.OnSpawn(s(0), s(1), s(2), nil)
		}),
		"unknown strand": mk(func(r *trace.Recorder) {
			r.OnRoot(s(0))
			r.OnSpawn(s(5), s(1), s(2), nil)
		}),
		"double introduction": mk(func(r *trace.Recorder) {
			r.OnRoot(s(0))
			r.OnSpawn(s(0), s(1), s(2), nil)
			r.OnSpawn(s(0), s(1), s(2), nil)
		}),
		"sync of unplaced strand": mk(func(r *trace.Recorder) {
			r.OnRoot(s(0))
			r.OnSpawn(s(0), s(1), s(2), nil)
			r.OnSync(s(2), s(9), []*sched.Strand{s(1)})
		}),
		"get before put": mk(func(r *trace.Recorder) {
			r.OnRoot(s(0))
			f1 := &sched.FutureTask{ID: 1, Parent: f0}
			r.OnCreate(s(0), &sched.Strand{ID: 1, Fut: f1}, s(2), s(3), f1)
			r.OnGet(s(2), s(4), f1)
		}),
	}
	for name, c := range cases {
		if _, err := c.Index(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
