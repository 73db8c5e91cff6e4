package trace_test

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/obsv"
	"sforder/internal/progen"
	"sforder/internal/sched"
	"sforder/internal/trace"
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
		// Interleave events and blocks in file order. Load keeps the two
		// streams separately ordered; reconstruct the interleaving by
		// replaying the raw bytes is overkill — instead check the weaker
		// per-stream property events give us, then that block strands
		// exist at all. The strict interleaved check runs in the replay
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
			if len(b.Addrs) != len(b.Kinds) {
				t.Fatalf("seed %d: ragged access block", seed)
			}
		}
		if c.Entries == 0 && counts.Reads+counts.Writes > 0 {
			// Engine access counters are off without CountAccesses, so
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
		for _, k := range b.Kinds {
			if k == detect.AccessWrite {
				writes++
			}
		}
	}
	if writes != 1 {
		t.Fatalf("%d write entries, want 1", writes)
	}
}

// TestStandaloneBlocksMatchTappedOnes: the standalone recorder writes a
// strand's block straight from the buffer's slot sets, the history's tap
// through the (addrs, kinds) slices — the same entries either way, a
// page's reads in slot order and then its writes, whatever the counts do
// to the packed kind bits (no reads, no writes, a byte boundary inside the
// reads, inside the writes, between them).
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
				reach := core.NewReach()
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
		if !reflect.DeepEqual(blocks[0], blocks[1]) {
			t.Fatalf("%d reads, %d writes: standalone blocks %v, tapped blocks %v", n[0], n[1], blocks[0], blocks[1])
		}
		for _, b := range blocks[0] {
			var writes bool
			for i, k := range b.Kinds {
				if k == detect.AccessWrite {
					writes = true
				} else if writes {
					t.Fatalf("%d reads, %d writes: a read after a write in block %v", n[0], n[1], b)
				}
				if i > 0 && b.Kinds[i-1] == k && b.Addrs[i-1] >= b.Addrs[i] {
					t.Fatalf("%d reads, %d writes: block %v not in slot order", n[0], n[1], b)
				}
			}
		}
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
	reach := core.NewReach()
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

// TestLoadRejectsGarbage: malformed headers and bodies all error.
func TestLoadRejectsGarbage(t *testing.T) {
	raw, _ := record(t, 1)
	flip := func(i int, b byte) []byte {
		out := append([]byte(nil), raw...)
		out[i] = b
		return out
	}
	cases := map[string][]byte{
		"empty":        {},
		"not a trace":  []byte("definitely not an sftrace file"),
		"bad magic":    flip(0, 'X'),
		"bad bom":      flip(8, 0xFF),
		"bad version":  flip(12, 99),
		"unknown op":   flip(13, 0xEE),
		"short header": raw[:10],
	}
	for name, data := range cases {
		if _, err := trace.Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := trace.Load(strings.NewReader(string(raw))); err != nil {
		t.Fatalf("pristine capture rejected: %v", err)
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
	})
}
