package replay_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/obsv"
	"sforder/internal/progen"
	"sforder/internal/replay"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// recordBytes is record keeping the raw capture bytes: streaming replay
// consumes the byte stream, not a loaded Capture.
func recordBytes(t testing.TB, main func(*sched.Task), workers int) ([]byte, []uint64) {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	reach := core.New(core.Config{})
	hist := detect.NewHistory(detect.Options{Reach: reach, FastPath: true, Tap: rec})
	opts := sched.Options{Tracer: reach, Aux: rec, Checker: hist}
	if workers <= 1 {
		opts.Serial = true
	} else {
		opts.Workers = workers
	}
	if _, err := sched.Run(opts, main); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), hist.RacyAddrs()
}

// TestRunShapedProgramsAllWays takes generated programs whose accesses are
// runs — rows and tiles that overlap, nest and cross shadow pages, some
// long enough that a strand flushes early, so the online history shares,
// splits and merges page states and the capture's blocks come from slot
// sets — through every way a verdict is reached: online at 1 and 4
// workers, replay of both recordings loaded and streamed, and replay of a
// detection-free recording. Each must equal the dag oracle's.
func TestRunShapedProgramsAllWays(t *testing.T) {
	for _, shape := range []progen.Config{
		{MaxDepth: 4, MaxOps: 8, Addrs: 700, MaxRun: 48},
		{MaxDepth: 3, MaxOps: 8, Addrs: 1800, MaxRun: 900},
	} {
		for seed := int64(0); seed < 8; seed++ {
			shape.Seed = seed
			p := progen.New(shape)
			want := runOracle(t, p.Main())
			check := func(how string, got []uint64) {
				if !sameAddrs(got, want) {
					t.Fatalf("runs of up to %d, seed %d, %s: %d racy addresses, the oracle %d",
						shape.MaxRun, seed, how, len(got), len(want))
				}
			}
			for _, recWorkers := range []int{1, 4} {
				raw, online := recordBytes(t, p.Main(), recWorkers)
				check("online", online)
				c, err := trace.Load(bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				loaded, err := replay.Run(c, replay.Options{Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				check("loaded replay", loaded.RacyAddrs)
				streamed, err := replay.RunStream(bytes.NewReader(raw), replay.Options{Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				check("streamed replay", streamed.RacyAddrs)
			}
			standalone, err := replay.Run(recordStandalone(t, p.Main()), replay.Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			check("replay of a standalone recording", standalone.RacyAddrs)
		}
	}
}

// sameResult holds a and b to one Result, field by field: the merged
// report, the counts, Queries, Shards, MaxShardEntries and ReachMemBytes.
// The timings and the stream peak, which depends on how fast the shards
// drain, are excepted; each peak must be within bound, and nonzero when
// the capture has a block.
func sameResult(t *testing.T, tag string, a, b *replay.Result, bound int64) {
	t.Helper()
	sameRaces(t, tag, a, b)
	rest := func(r *replay.Result) [9]any {
		return [9]any{r.RaceCount, r.Strands, r.Futures, r.Events, r.Entries,
			r.Queries, r.Shards, r.MaxShardEntries, r.ReachMemBytes}
	}
	if rest(a) != rest(b) {
		t.Fatalf("%s: count, strand, future, event, entry, query, shard, max-shard and reach-memory fields %v, %v",
			tag, rest(a), rest(b))
	}
	for _, r := range []*replay.Result{a, b} {
		if (r.StreamPeakBlocks > 0) != (r.Entries > 0) || r.StreamPeakBlocks > bound || (r.StreamPeakBytes > 0) != (r.Entries > 0) {
			t.Fatalf("%s: stream peak %d blocks, %d bytes; bound %d blocks", tag, r.StreamPeakBlocks, r.StreamPeakBytes, bound)
		}
	}
}

// TestStreamReplayMatchesBarriered holds the two entry points of the one
// replay pipeline to each other: on random programs — serial and
// parallel-recorded — replay.RunStream on a capture's bytes must return
// the Result of replay.Run on the loaded capture (sameResult) on every
// substrate at 1 and 4 shards, and its racy set must be online
// detection's.
func TestStreamReplayMatchesBarriered(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 6})
		recWorkers := 1
		if seed%3 == 2 {
			recWorkers = 4
		}
		raw, online := recordBytes(t, p.Main(), recWorkers)
		c, err := trace.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range substrates {
			for _, workers := range []int{1, 4} {
				loaded, err := replay.Run(c, replay.Options{
					Workers: workers, Reach: sub.sub,
				})
				if err != nil {
					t.Fatalf("seed %d %s/%dw: %v", seed, sub.name, workers, err)
				}
				res, err := replay.RunStream(bytes.NewReader(raw), replay.Options{
					Workers: workers, Reach: sub.sub,
				})
				if err != nil {
					t.Fatalf("seed %d %s/%dw stream: %v", seed, sub.name, workers, err)
				}
				tag := fmt.Sprintf("seed %d %s/%dw", seed, sub.name, workers)
				sameResult(t, tag, res, loaded, int64(replay.StreamQueueCap+workers+1))
				if !sameAddrs(res.RacyAddrs, online) {
					t.Fatalf("%s: stream %v, online %v", tag, res.RacyAddrs, online)
				}
				if res.Entries != c.Entries || res.Strands != c.Strands || res.Futures != uint64(c.Futures) ||
					res.Events != uint64(len(c.Events)) {
					t.Fatalf("%s: totals %d/%d/%d/%d, capture %d/%d/%d/%d", tag,
						res.Entries, res.Strands, res.Futures, res.Events,
						c.Entries, c.Strands, c.Futures, len(c.Events))
				}
			}
		}
	}
}

// chainCapture crafts a capture whose root strand emits `blocks` access
// blocks of `per` entries each — the block count scales freely without
// growing the strand structure, so resident-memory bounds are isolated
// from dag size.
func chainCapture(t testing.TB, blocks, per int) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	f0 := &sched.FutureTask{ID: 0}
	root := &sched.Strand{ID: 0, Fut: f0}
	rec.OnRoot(root)
	addrs := make([]uint64, per)
	kinds := make([]detect.AccessKind, per)
	for b := 0; b < blocks; b++ {
		for i := range addrs {
			addrs[i] = uint64(b*per + i)
			kinds[i] = detect.AccessWrite
		}
		rec.TapAccesses(root, addrs, kinds)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamBoundedMemory pins the pipeline's memory bound through both
// entry points: blocks in flight between the loader and the shards never
// exceed StreamQueueCap + Workers + 1, also when the trace gets 10×
// longer — constant memory in trace length — and the peak is accounted.
func TestStreamBoundedMemory(t *testing.T) {
	const workers = 2
	bound := int64(replay.StreamQueueCap + workers + 1)
	opts := replay.Options{Workers: workers, Reach: core.SubstrateDePa}
	for _, blocks := range []int{200, 2000} {
		raw := chainCapture(t, blocks, 8)
		c, err := trace.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for how, run := range map[string]func() (*replay.Result, error){
			"loaded":   func() (*replay.Result, error) { return replay.Run(c, opts) },
			"streamed": func() (*replay.Result, error) { return replay.RunStream(bytes.NewReader(raw), opts) },
		} {
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if res.StreamPeakBlocks == 0 || res.StreamPeakBytes == 0 {
				t.Fatalf("%d blocks %s: no peak accounted", blocks, how)
			}
			if res.StreamPeakBlocks > bound {
				t.Fatalf("%d blocks %s: peak %d blocks, bound %d", blocks, how, res.StreamPeakBlocks, bound)
			}
		}
	}
}

// TestStreamRejectsCorrupt: truncations and structure violations fail
// the streamed replay with an error, never a partial verdict.
func TestStreamRejectsCorrupt(t *testing.T) {
	p := progen.New(progen.Config{Seed: 2, MaxDepth: 4, MaxOps: 8, Addrs: 4})
	raw, _ := recordBytes(t, p.Main(), 1)
	for _, cut := range []int{len(raw) - 1, len(raw) / 2, 30} {
		if _, err := replay.RunStream(bytes.NewReader(raw[:cut]), replay.Options{
			Workers: 2, Reach: core.SubstrateDePa,
		}); err == nil {
			t.Errorf("cut at %d: streamed replay succeeded", cut)
		}
	}
	// A block naming an undeclared strand dies in the decoder before it
	// can reach a shard.
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	f0 := &sched.FutureTask{ID: 0}
	rec.OnRoot(&sched.Strand{ID: 0, Fut: f0})
	rec.TapAccesses(&sched.Strand{ID: 50, Fut: f0}, []uint64{1}, []detect.AccessKind{detect.AccessWrite})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := replay.RunStream(bytes.NewReader(buf.Bytes()), replay.Options{
		Workers: 2, Reach: core.SubstrateDePa,
	}); err == nil {
		t.Error("streamed replay accepted a block for an undeclared strand")
	}
}

// TestStreamConcurrentPublication is the -race stress of the pipeline's
// core hazard: the loader publishing labels and bitmaps (including OM
// list inserts with relabelings) while eight shards concurrently query
// them — across both substrates, on parallel-recorded captures,
// with several streams in flight at once.
func TestStreamConcurrentPublication(t *testing.T) {
	p := progen.New(progen.Config{Seed: 13, MaxDepth: 5, MaxOps: 9, Addrs: 8})
	raw, online := recordBytes(t, p.Main(), 4)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := substrates[i%len(substrates)]
			res, err := replay.RunStream(bytes.NewReader(raw), replay.Options{
				Workers: 8, Reach: sub.sub,
			})
			if err != nil {
				t.Errorf("stream %d: %v", i, err)
				return
			}
			if !sameAddrs(res.RacyAddrs, online) {
				t.Errorf("stream %d (%s): %v, online %v", i, sub.name, res.RacyAddrs, online)
			}
		}()
	}
	wg.Wait()
}

// TestStreamGauges: a streamed run registers the stream gauges, and its
// wall is the pipeline's plus the merge.
func TestStreamGauges(t *testing.T) {
	p := progen.New(progen.Config{Seed: 3, MaxDepth: 4, MaxOps: 7})
	raw, _ := recordBytes(t, p.Main(), 1)
	reg := obsv.NewRegistry()
	res, err := replay.RunStream(bytes.NewReader(raw), replay.Options{
		Workers: 2, Reach: core.SubstrateDePa, Stats: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap["replay.stream_peak_blocks"] != res.StreamPeakBlocks {
		t.Errorf("peak gauge %d, result %d", snap["replay.stream_peak_blocks"], res.StreamPeakBlocks)
	}
	if snap["replay.bytes"] == 0 || snap["replay.wall_ns"] == 0 {
		t.Errorf("bytes/wall gauges empty: %d/%d", snap["replay.bytes"], snap["replay.wall_ns"])
	}
	if snap["replay.merge_ns"] < 0 {
		t.Errorf("merge gauge negative")
	}
	if snap["replay.wall_ns"] != snap["replay.detect_ns"]+snap["replay.merge_ns"] {
		t.Errorf("wall %d ns, detect %d + merge %d", snap["replay.wall_ns"], snap["replay.detect_ns"], snap["replay.merge_ns"])
	}
}
