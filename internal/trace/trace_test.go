package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sforder/internal/accbuf"
	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/obsv"
	"sforder/internal/progen"
	"sforder/internal/sched"
	"sforder/internal/trace"
	"sforder/internal/workload"
)

// record runs a random program serially with the recorder attached as
// auxiliary tracer and standalone access checker, and returns the
// encoded capture plus the engine counts.
func record(t testing.TB, seed int64) ([]byte, sched.Counts) {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 7})
	counts, err := sched.Run(sched.Options{Serial: true, Aux: rec, Checker: rec}, p.Main())
	if err != nil {
		t.Fatalf("seed %d: run: %v", seed, err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("seed %d: close: %v", seed, err)
	}
	return buf.Bytes(), counts
}

// TestCaptureRoundTrip: a recorded run decodes to a capture whose
// structure mirrors the engine counts and whose every reference is
// introduced before use.
func TestCaptureRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		raw, counts := record(t, seed)
		c, err := trace.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("seed %d: load: %v", seed, err)
		}
		if c.Strands != counts.Strands {
			t.Fatalf("seed %d: %d strands decoded, engine made %d", seed, c.Strands, counts.Strands)
		}
		if uint64(c.Futures) != counts.Futures {
			t.Fatalf("seed %d: %d futures decoded, engine made %d", seed, c.Futures, counts.Futures)
		}
		if c.Bytes != int64(len(raw)) {
			t.Fatalf("seed %d: %d bytes consumed, file has %d", seed, c.Bytes, len(raw))
		}
		if len(c.Events) == 0 || c.Events[0].Op != trace.OpRoot {
			t.Fatalf("seed %d: capture does not start with root", seed)
		}
		// Every strand named by an event or access block must have been
		// introduced by an earlier event — the invariant replay needs.
		introduced := map[uint64]bool{}
		intro := func(id uint64) { introduced[id] = true }
		need := func(id uint64) {
			if !introduced[id] {
				t.Fatalf("seed %d: strand %d referenced before introduction", seed, id)
			}
		}
		// Load keeps events and blocks in two lists, each in file order;
		// check the weaker property the events alone give us, then that
		// block strands exist at all. The strict interleaved check runs in the replay
		// package's tests, which re-decode with the engine.
		for _, ev := range c.Events {
			switch ev.Op {
			case trace.OpRoot:
				intro(ev.U)
			case trace.OpSpawn:
				need(ev.U)
				intro(ev.A)
				intro(ev.B)
				if ev.Placeholder > 0 {
					intro(ev.Placeholder - 1)
				}
			case trace.OpCreate:
				need(ev.U)
				intro(ev.A)
				intro(ev.B)
				if ev.Placeholder > 0 {
					intro(ev.Placeholder - 1)
				}
			case trace.OpSync:
				need(ev.U)
				intro(ev.A)
				for _, s := range ev.Sinks {
					need(s)
				}
			case trace.OpReturn, trace.OpPut:
				need(ev.U)
			case trace.OpGet:
				need(ev.U)
				intro(ev.A)
			}
		}
		for _, b := range c.Blocks {
			need(b.Strand)
			if b.Entries() == 0 {
				t.Fatalf("seed %d: empty access block", seed)
			}
		}
		if c.Entries == 0 && counts.Reads+counts.Writes > 0 {
			// Engine access counters are off without a stats registry, so
			// only assert when they were counted. (They are not here;
			// keep the branch for documentation.)
			t.Fatalf("seed %d: accesses ran but none captured", seed)
		}
	}
}

// TestRecorderDedup: the standalone checker mode deduplicates by the
// strand buffer's rule — a strand touching one address many times
// contributes at most a write entry and at most a read entry.
func TestRecorderDedup(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	_, err := sched.Run(sched.Options{Serial: true, Aux: rec, Checker: rec}, func(task *sched.Task) {
		for i := 0; i < 100; i++ {
			task.Read(7)
			task.Write(7)
			task.Read(9)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := trace.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.Entries > 3 {
		t.Fatalf("300 accesses to 2 addrs captured as %d entries, want <= 3", c.Entries)
	}
	var writes int
	for _, b := range c.Blocks {
		for _, w := range b.Writes {
			writes += bits.OnesCount64(w)
		}
	}
	if writes != 1 {
		t.Fatalf("%d write entries, want 1", writes)
	}
}

// TestStandaloneBlocksMatchTappedOnes: the standalone recorder writes a
// strand's block straight from the buffer's slot sets, the history's tap
// folds the (addrs, kinds) lists back into them — the same blocks either
// way, whatever the counts do to the mask (no reads, no writes, words of
// one kind only, both kinds in one word).
func TestStandaloneBlocksMatchTappedOnes(t *testing.T) {
	for _, n := range [][2]uint64{{0, 1}, {1, 0}, {3, 2}, {8, 8}, {5, 11}, {16, 1}, {9, 23}, {200, 256}} {
		main := func(task *sched.Task) {
			for a := uint64(0); a < n[1]; a++ {
				task.Write(0x700 + 255 - a) // downwards: the block is in slot order, not program order
			}
			for a := uint64(0); a < n[0]; a++ {
				task.Read(0x800 + 3*a%256)
				task.Read(0x700 + a) // absorbed where the loop above wrote
				task.Write(0x700 + a)
			}
		}
		var blocks [2][]trace.AccessBlock
		for i, tapped := range []bool{false, true} {
			var buf bytes.Buffer
			rec := trace.NewRecorder(&buf)
			opts := sched.Options{Serial: true, Aux: rec, Checker: rec}
			if tapped {
				reach := core.New(core.Config{})
				opts.Tracer = reach
				opts.Checker = detect.NewHistory(detect.Options{Reach: reach, FastPath: true, Tap: rec})
			}
			if _, err := sched.Run(opts, main); err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			c, err := trace.Load(&buf)
			if err != nil {
				t.Fatalf("%v reads, %v writes, tapped=%v: %v", n[0], n[1], tapped, err)
			}
			blocks[i] = c.Blocks
		}
		if !slices.Equal(blocks[0], blocks[1]) {
			t.Fatalf("%d reads, %d writes: standalone blocks %v, tapped blocks %v", n[0], n[1], blocks[0], blocks[1])
		}
	}
}

// TestGenuineTapIsOneBlock: a list the history taps is one drained page,
// which the recorder writes as exactly one block holding the page's sets —
// whatever mix of reads, writes and read-then-written slots the page has.
func TestGenuineTapIsOneBlock(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	f0 := &sched.FutureTask{ID: 0}
	s := &sched.Strand{ID: 0, Fut: f0}
	rec.OnRoot(s)
	b := accbuf.Get()
	for a := uint64(0); a < 3000; a += 7 {
		b.Add(a, detect.AccessKind(a/7%3&1))
		b.Add(a/2, detect.AccessWrite) // some of them read first
	}
	var want []trace.AccessBlock
	b.Drain(func(page uint64, reads, writes *detect.SlotSet) {
		want = append(want, trace.AccessBlock{Strand: s.ID, Page: page, Reads: *reads, Writes: *writes})
		addrs, kinds := b.Expand(page, reads, writes)
		rec.TapAccesses(s, addrs, kinds)
	})
	b.Release()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := trace.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 10 || !slices.Equal(c.Blocks, want) {
		t.Fatalf("%d taps wrote %d blocks; want one per tap, equal to the drained sets", len(want), len(c.Blocks))
	}
}

// TestStreamBlocksAllocateNothing: decoding an access block allocates
// nothing — the Stream hands out its own block, and the words are read in
// place from the reader's buffer.
func TestStreamBlocksAllocateNothing(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	s := &sched.Strand{ID: 0, Fut: &sched.FutureTask{}}
	rec.OnRoot(s)
	for a := uint64(0); a < 200; a++ {
		rec.TapAccesses(s, []uint64{a << detect.PageBits, a<<detect.PageBits | 255}, []detect.AccessKind{detect.AccessRead, detect.AccessWrite})
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := trace.OpenStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ev, _, err := st.Next(); err != nil || ev == nil {
		t.Fatalf("first item: %v, %v; want the root event", ev, err)
	}
	if n := testing.AllocsPerRun(150, func() {
		if _, blk, err := st.Next(); err != nil || blk == nil {
			t.Fatalf("block: %v, %v", blk, err)
		}
	}); n != 0 {
		t.Fatalf("%v allocations a block, want 0", n)
	}
}

// TestStandaloneRecorderFootprintIsPerPage: the recorder's strand buffer
// holds bitmaps, not entries, so a strand like sw's reduce — a quarter of
// a million first-time reads, never closed in between — costs memory by
// the pages it touches (9 bytes an entry it used to be, until close).
func TestStandaloneRecorderFootprintIsPerPage(t *testing.T) {
	const entries, pages = 1 << 18, 1 << 10
	rec := trace.NewRecorder(io.Discard)
	s := &sched.Strand{Fut: &sched.FutureTask{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for a := uint64(0); a < entries; a++ {
		rec.Read(s, a)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > pages*512 {
		t.Errorf("%d kept reads over %d pages allocated %d bytes, want at most %d (512 a page)", entries, pages, got, pages*512)
	}
	rec.StrandClose(s)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderBuffersWhatItRecords: the recorder's buffer is 4 KiB until
// a capture outgrows it, so recording a one-strand program, a few dozen
// bytes of capture taken as the history's tap, allocates a few KiB, not a
// 64 KiB write buffer.
func TestRecorderBuffersWhatItRecords(t *testing.T) {
	addrs := make([]uint64, 64)
	kinds := make([]detect.AccessKind, len(addrs))
	for a := range addrs {
		addrs[a], kinds[a] = uint64(a), detect.AccessWrite
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := trace.NewRecorder(io.Discard)
	s := &sched.Strand{Fut: &sched.FutureTask{}}
	rec.OnRoot(s)
	rec.TapAccesses(s, addrs, kinds)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a %d-byte capture allocated %d bytes", rec.Bytes(), got)
	if got >= 8<<10 {
		t.Errorf("recording a one-strand program allocated %d bytes, want under %d", got, 8<<10)
	}
}

// limitWriter takes limit bytes and then fails, or, if short, stops
// taking them without an error.
type limitWriter struct {
	limit int
	short bool
}

var errFull = errors.New("writer full")

func (w *limitWriter) Write(p []byte) (int, error) {
	if len(p) <= w.limit {
		w.limit -= len(p)
		return len(p), nil
	}
	n := w.limit
	w.limit = 0
	if w.short {
		return n, nil
	}
	return n, errFull
}

// TestRecorderReportsWriteErrors: a write that fails, the first or a
// later one, and one that takes less than it was given without an error,
// make Close fail with that error.
func TestRecorderReportsWriteErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    *limitWriter
		want error
	}{
		{"fails at once", &limitWriter{limit: 0}, errFull},
		{"fails mid-run", &limitWriter{limit: 100 << 10}, errFull},
		{"short mid-run", &limitWriter{limit: 100 << 10, short: true}, io.ErrShortWrite},
	} {
		rec := trace.NewRecorder(tc.w)
		run := workload.Sort(100000, 2048).Make() // a capture of about 280 KB
		if _, err := sched.Run(sched.Options{Workers: 1, Aux: rec, Checker: rec}, run.Main); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Close returned %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestStandaloneRecorderParallel: four workers buffering strands through
// pooled strand buffers and draining them under the recorder's lock (run
// under -race in CI). The dedup is exact, so the capture holds the same
// number of entries whatever the schedule — the serial capture's.
func TestStandaloneRecorderParallel(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		serial, _ := record(t, seed)
		want, err := trace.Load(bytes.NewReader(serial))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rec := trace.NewRecorder(&buf)
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 7})
		if _, err := sched.Run(sched.Options{Workers: 4, Aux: rec, Checker: rec}, p.Main()); err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if err := rec.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
		got, err := trace.Load(&buf)
		if err != nil {
			t.Fatalf("seed %d: load: %v", seed, err)
		}
		if got.Entries != want.Entries {
			t.Fatalf("seed %d: %d entries at four workers, %d serially", seed, got.Entries, want.Entries)
		}
	}
}

// TestTapRecording: attached as detect.Options.Tap, the recorder sees
// the deduped batch stream the history applies.
func TestTapRecording(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	p := progen.New(progen.Config{Seed: 3, MaxDepth: 4, MaxOps: 7})
	reg := obsv.NewRegistry()
	rec.RegisterStats(reg)
	reach := core.New(core.Config{})
	hist := detect.NewHistory(detect.Options{Reach: reach, FastPath: true, Tap: rec})
	if _, err := sched.Run(sched.Options{Serial: true, Tracer: reach, Aux: rec, Checker: hist}, p.Main()); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := trace.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.Entries == 0 {
		t.Fatal("tap recorded no accesses")
	}
	snap := reg.Snapshot()
	if snap["record.access_entries"] != int64(c.Entries) {
		t.Fatalf("record.access_entries gauge %d, capture has %d", snap["record.access_entries"], c.Entries)
	}
	if snap["record.bytes"] == 0 || snap["record.struct_events"] == 0 {
		t.Fatal("record.* gauges not populated")
	}
}

// hostile returns hand-made captures, each well-formed but for the one
// defect its name gives, and the well-formed capture they are cut from: a
// root, one access block of strand 0 on page 5, the trailer.
func hostile() (valid []byte, cases map[string][]byte) {
	// The two ops past the structure events: access block and trailer.
	const opAccess, opEnd = byte(trace.OpGet) + 1, byte(trace.OpGet) + 2
	capture := func(pageBits byte, strand, page uint64, mask byte, words []uint64, entries uint64) []byte {
		out := append([]byte("sftrace\n\x04\x03\x02\x01"), trace.Version, pageBits, byte(trace.OpRoot), 0, opAccess)
		out = binary.AppendUvarint(out, strand)
		out = append(binary.AppendUvarint(out, page), mask)
		for _, w := range words {
			out = binary.LittleEndian.AppendUint64(out, w)
		}
		return binary.AppendUvarint(append(out, opEnd, 1), entries)
	}
	const pb = detect.PageBits
	return capture(pb, 0, 5, 0x41, []uint64{3, 1}, 3), map[string][]byte{
		"mask 0":                 capture(pb, 0, 5, 0, nil, 0),
		"zero word":              capture(pb, 0, 5, 0x41, []uint64{3, 0}, 2),
		"page past the space":    capture(pb, 0, 1<<(64-pb), 0x41, []uint64{3, 1}, 3),
		"foreign page size":      capture(pb+1, 0, 5, 0x41, []uint64{3, 1}, 3),
		"undeclared strand":      capture(pb, 1, 5, 0x41, []uint64{3, 1}, 3),
		"trailer entry count":    capture(pb, 0, 5, 0x41, []uint64{3, 1}, 2),
		"truncated access block": capture(pb, 0, 5, 0x41, []uint64{3}, 2),
	}
}

// TestLoadRejectsGarbage: malformed headers and bodies all error, the
// hand-made hostile blocks among them.
func TestLoadRejectsGarbage(t *testing.T) {
	raw, _ := record(t, 1)
	flip := func(i int, b byte) []byte {
		out := append([]byte(nil), raw...)
		out[i] = b
		return out
	}
	valid, cases := hostile()
	cases["empty"] = []byte{}
	cases["not a trace"] = []byte("definitely not an sftrace file")
	cases["bad magic"] = flip(0, 'X')
	cases["bad bom"] = flip(8, 0xFF)
	cases["bad version"] = flip(12, 99)
	cases["version 1"] = flip(12, 1)
	cases["unknown op"] = flip(14, 0xEE)
	cases["short header"] = raw[:10]
	for name, data := range cases {
		if _, err := trace.Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, data := range [][]byte{raw, valid} {
		if _, err := trace.Load(bytes.NewReader(data)); err != nil {
			t.Fatalf("pristine capture rejected: %v", err)
		}
	}
	if _, err := trace.Load(bytes.NewReader(cases["version 1"])); err == nil || !strings.Contains(err.Error(), "re-record it") {
		t.Fatalf("a version 1 capture: %v; want the re-record message", err)
	}
}

// TestLoadRejectsTruncation: every strict prefix of a valid capture is
// rejected — the trailer makes truncation detectable at any cut point.
func TestLoadRejectsTruncation(t *testing.T) {
	raw, _ := record(t, 2)
	for cut := 0; cut < len(raw); cut++ {
		if _, err := trace.Load(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", cut, len(raw))
		}
	}
}

// FuzzCaptureRoundTrip fuzzes both directions: arbitrary bytes must
// never panic the loader, and a capture generated from the fuzz input
// (interpreted as a progen seed) must round-trip exactly.
func FuzzCaptureRoundTrip(f *testing.F) {
	valid, _ := record(f, 0)
	f.Add(valid)
	f.Add([]byte("sftrace\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Loader hardening: arbitrary input errors or decodes, never
		// panics or over-allocates.
		c, err := trace.Load(bytes.NewReader(data))
		if err == nil && c == nil {
			t.Fatal("nil capture without error")
		}
		// Round-trip: derive a seed from the input and record a real run.
		var seed int64
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		raw, counts := record(t, seed%1000)
		c2, err := trace.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("recorded capture rejected: %v", err)
		}
		if c2.Strands != counts.Strands || uint64(c2.Futures) != counts.Futures {
			t.Fatalf("capture decodes %d strands/%d futures, engine made %d/%d",
				c2.Strands, c2.Futures, counts.Strands, counts.Futures)
		}
		entries := uint64(0)
		for _, b := range c2.Blocks {
			entries += uint64(b.Entries())
		}
		if entries != c2.Entries || int64(len(raw)) != c2.Bytes {
			t.Fatalf("blocks hold %d entries of %d, %d bytes of %d decoded", entries, c2.Entries, c2.Bytes, len(raw))
		}
	})
}

// FuzzOpenStream: arbitrary bytes never panic the incremental decoder, and
// a Stream that reaches io.EOF agrees with Load on every event, block and
// total; one that fails, Load rejects too.
func FuzzOpenStream(f *testing.F) {
	raw, _ := record(f, 0)
	f.Add(raw)
	valid, cases := hostile()
	f.Add(valid)
	for _, data := range cases {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, loadErr := trace.Load(bytes.NewReader(data))
		st, err := trace.OpenStream(bytes.NewReader(data))
		var events []trace.Event
		var blocks []trace.AccessBlock
		for err == nil {
			var ev *trace.Event
			var blk *trace.AccessBlock
			if ev, blk, err = st.Next(); ev != nil {
				events = append(events, *ev)
			} else if blk != nil {
				blocks = append(blocks, *blk)
			}
		}
		if err != io.EOF {
			if loadErr == nil {
				t.Fatalf("stream failed (%v), Load accepted", err)
			}
			return
		}
		if loadErr != nil {
			t.Fatalf("stream reached the end, Load failed: %v", loadErr)
		}
		if !reflect.DeepEqual(events, c.Events) || !slices.Equal(blocks, c.Blocks) ||
			st.Entries() != c.Entries || st.Strands() != c.Strands || st.Bytes() != c.Bytes {
			t.Fatalf("stream and Load disagree: %d/%d events, %d/%d blocks, %d/%d entries",
				len(events), len(c.Events), len(blocks), len(c.Blocks), st.Entries(), c.Entries)
		}
	})
}
