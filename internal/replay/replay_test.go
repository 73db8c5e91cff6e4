package replay_test

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"sforder/internal/core"
	"sforder/internal/dag"
	"sforder/internal/detect"
	"sforder/internal/obsv"
	"sforder/internal/oracle"
	"sforder/internal/progen"
	"sforder/internal/replay"
	"sforder/internal/sched"
	"sforder/internal/trace"
	"sforder/internal/workload"
)

// substrates is the ABL12 sweep: both reachability substrates.
var substrates = []struct {
	name string
	sub  core.Substrate
}{
	{"om", core.SubstrateOM},
	{"depa", core.SubstrateDePa},
}

// record runs main under full online SF-Order detection (fast path on,
// so the tap sees the batched stream) with a recorder attached, and
// returns the capture plus online detection's racy-location set.
func record(t testing.TB, main func(*sched.Task), workers int) (*trace.Capture, []uint64) {
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
	c, err := trace.Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return c, hist.RacyAddrs()
}

// recordStandalone records main with the recorder as the access checker
// itself — no history, no online detection.
func recordStandalone(t testing.TB, main func(*sched.Task)) *trace.Capture {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	if _, err := sched.Run(sched.Options{Serial: true, Aux: rec, Checker: rec}, main); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := trace.Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return c
}

// runOracle executes p serially under the exhaustive dag oracle and
// returns the ground-truth racy-location set.
func runOracle(t testing.TB, main func(*sched.Task)) []uint64 {
	t.Helper()
	rec := dag.NewRecorder()
	log := oracle.NewLogger()
	if _, err := sched.Run(sched.Options{Serial: true, Tracer: rec, Checker: log}, main); err != nil {
		t.Fatal(err)
	}
	return log.RacyAddrs(rec)
}

func sameAddrs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameRaces compares the merged detailed reports field by field.
func sameRaces(t *testing.T, tag string, a, b *replay.Result) {
	t.Helper()
	if a.RaceCount != b.RaceCount || len(a.Races) != len(b.Races) {
		t.Fatalf("%s: %d races (%d retained) vs %d (%d)",
			tag, a.RaceCount, len(a.Races), b.RaceCount, len(b.Races))
	}
	for i := range a.Races {
		if a.Races[i] != b.Races[i] {
			t.Fatalf("%s: race %d differs: %v vs %v", tag, i, a.Races[i], b.Races[i])
		}
	}
	if !sameAddrs(a.RacyAddrs, b.RacyAddrs) {
		t.Fatalf("%s: racy sets differ: %v vs %v", tag, a.RacyAddrs, b.RacyAddrs)
	}
}

// TestReplayMatchesOnlineAndOracleFuzz is the ABL12 verdict-equality
// fuzz: on random programs recorded at 1 and 4 workers, offline replay —
// over every substrate, serial and with 4 workers — must produce exactly
// online detection's racy-location set, which must itself equal the
// exhaustive oracle's, and DePa's merged report must equal OM's.
func TestReplayMatchesOnlineAndOracleFuzz(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 6})
		want := runOracle(t, p.Main())
		for _, recWorkers := range []int{1, 4} {
			c, online := record(t, p.Main(), recWorkers)
			if !sameAddrs(online, want) {
				t.Fatalf("seed %d rec%d: online %v, oracle %v", seed, recWorkers, online, want)
			}
			for _, workers := range []int{1, 4} {
				var om *replay.Result
				for _, sub := range substrates {
					res, err := replay.Run(c, replay.Options{
						Workers: workers, Reach: sub.sub,
					})
					if err != nil {
						t.Fatalf("seed %d rec%d %s/%dw: %v", seed, recWorkers, sub.name, workers, err)
					}
					if !sameAddrs(res.RacyAddrs, want) {
						t.Fatalf("seed %d rec%d %s/%dw: replay %v, oracle %v",
							seed, recWorkers, sub.name, workers, res.RacyAddrs, want)
					}
					if om == nil {
						om = res
					} else {
						sameRaces(t, fmt.Sprintf("seed %d rec%d %s/%dw against om", seed, recWorkers, sub.name, workers), res, om)
					}
				}
			}
		}
	}
}

// TestReplayParallelRecording: captures taken under the parallel engine
// (4 workers appending to their own recorder lanes, each written to the
// file at its hand-offs) replay to the oracle verdict too — the
// linearization argument does not depend on serial execution.
func TestReplayParallelRecording(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 6})
		c, online := record(t, p.Main(), 4)
		want := runOracle(t, p.Main())
		if !sameAddrs(online, want) {
			t.Fatalf("seed %d: online %v, oracle %v", seed, online, want)
		}
		res, err := replay.Run(c, replay.Options{Workers: 4, Reach: core.SubstrateDePa})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !sameAddrs(res.RacyAddrs, want) {
			t.Fatalf("seed %d: replay %v, oracle %v", seed, res.RacyAddrs, want)
		}
	}
}

// TestReplayStandaloneRecorder: detection-free captures (recorder as the
// access checker, no online history at all) carry enough to reach the
// oracle verdict offline.
func TestReplayStandaloneRecorder(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		p := progen.New(progen.Config{Seed: seed, MaxDepth: 4, MaxOps: 8, Addrs: 6})
		c := recordStandalone(t, p.Main())
		want := runOracle(t, p.Main())
		res, err := replay.Run(c, replay.Options{Workers: 2, Reach: core.SubstrateOM})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !sameAddrs(res.RacyAddrs, want) {
			t.Fatalf("seed %d: replay %v, oracle %v", seed, res.RacyAddrs, want)
		}
	}
}

// TestShardBoundaryRace: two racing pairs on addresses whose shadow pages
// different shards own must both be reported — races never cross a shard,
// and sharding must not drop one.
func TestShardBoundaryRace(t *testing.T) {
	const p = 4
	// Pick two addresses owned by different shards of a 4-way replay.
	shard := func(addr uint64) int { return replay.ShardOf(addr>>detect.PageBits, p) }
	a1 := uint64(1)
	a2 := uint64(0)
	for addr := uint64(2); addr < 1<<16; addr++ {
		if shard(addr) != shard(a1) {
			a2 = addr
			break
		}
	}
	if shard(a1) == shard(a2) {
		t.Fatalf("no shard-crossing address pair found")
	}
	main := func(task *sched.Task) {
		h := task.Create(func(c *sched.Task) any {
			c.Write(a1)
			c.Write(a2)
			return nil
		})
		task.Write(a1) // races with the future body on shard A
		task.Write(a2) // races with the future body on shard B
		task.Get(h)
	}
	c, online := record(t, main, 1)
	if len(online) != 2 {
		t.Fatalf("online found %v, want both addresses", online)
	}
	res, err := replay.Run(c, replay.Options{Workers: p, Reach: core.SubstrateDePa})
	if err != nil {
		t.Fatal(err)
	}
	if !sameAddrs(res.RacyAddrs, online) {
		t.Fatalf("replay %v, online %v", res.RacyAddrs, online)
	}
	if res.Shards != p {
		t.Fatalf("ran with %d shards, want %d", res.Shards, p)
	}
}

// TestReplayDeterministicAcrossWorkers: the merged detailed reports are
// identical for every worker count, loaded and streamed — sharding and
// merge order leak nothing into the result. That includes a report cut by
// MaxRaces: the shards keep every record and the cap falls on the sorted
// merge, so the same records survive whatever the shard count.
func TestReplayDeterministicAcrossWorkers(t *testing.T) {
	p := progen.New(progen.Config{Seed: 7, MaxDepth: 5, MaxOps: 9, Addrs: 4})
	raw, _ := recordBytes(t, p.Main(), 1)
	c, err := trace.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, maxRaces := range []int{0, 3} {
		var base *replay.Result
		for _, workers := range []int{1, 2, 4, 8} {
			opts := replay.Options{Workers: workers, Reach: core.SubstrateDePa, MaxRaces: maxRaces}
			loaded, err := replay.Run(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := replay.RunStream(bytes.NewReader(raw), opts)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = loaded
				if base.RaceCount == 0 {
					t.Fatal("seed produced no races; pick another")
				}
				if maxRaces > 0 && (base.RaceCount <= uint64(maxRaces) || len(base.Races) != maxRaces) {
					t.Fatalf("%d races, %d retained: the cap of %d cuts nothing", base.RaceCount, len(base.Races), maxRaces)
				}
			}
			sameRaces(t, fmt.Sprintf("cap %d, %d workers loaded", maxRaces, workers), loaded, base)
			sameRaces(t, fmt.Sprintf("cap %d, %d workers streamed", maxRaces, workers), streamed, base)
		}
	}
}

// TestReplayWorkloads pins the acceptance shape: recorded runs of the
// five paper+extra workloads replay on both substrates to online
// detection's race set (empty — the workloads are race-free) with every
// access accounted for, and DePa's merged report equals OM's.
func TestReplayWorkloads(t *testing.T) {
	for _, name := range []string{"mm", "sort", "hw", "spine", "pipeline"} {
		b := workload.ByName(name, workload.ScaleTest)
		if b == nil {
			t.Fatalf("workload %s missing", name)
		}
		run := b.Make()
		c, online := record(t, run.Main, 1)
		if err := run.Verify(); err != nil {
			t.Fatalf("%s: verify: %v", name, err)
		}
		if c.Entries == 0 {
			t.Fatalf("%s: no accesses captured", name)
		}
		var om *replay.Result
		for _, sub := range substrates {
			res, err := replay.Run(c, replay.Options{Workers: 4, Reach: sub.sub})
			if err != nil {
				t.Fatalf("%s %s: %v", name, sub.name, err)
			}
			if !sameAddrs(res.RacyAddrs, online) {
				t.Fatalf("%s %s: replay %v, online %v", name, sub.name, res.RacyAddrs, online)
			}
			if res.Entries != c.Entries || res.Strands != c.Strands {
				t.Fatalf("%s %s: replay processed %d/%d entries, %d/%d strands",
					name, sub.name, res.Entries, c.Entries, res.Strands, c.Strands)
			}
			if om == nil {
				om = res
			} else {
				sameRaces(t, name+" "+sub.name+" against om", res, om)
			}
		}
	}
}

// TestReplayGauges: a Stats registry passed to replay carries the
// replay.* gauges afterwards.
func TestReplayGauges(t *testing.T) {
	p := progen.New(progen.Config{Seed: 3, MaxDepth: 4, MaxOps: 7})
	c, _ := record(t, p.Main(), 1)
	reg := obsv.NewRegistry()
	res, err := replay.Run(c, replay.Options{Workers: 2, Reach: core.SubstrateDePa, Stats: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"replay.events", "replay.entries", "replay.shards", "replay.bytes", "replay.wall_ns"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("gauge %s missing", name)
		}
	}
	if snap["replay.events"] != int64(res.Events) || snap["replay.shards"] != 2 {
		t.Fatalf("gauge values %d/%d, want %d/2", snap["replay.events"], snap["replay.shards"], res.Events)
	}
	if snap["replay.bytes"] != c.Bytes || snap["replay.bytes"] == 0 {
		t.Fatalf("replay.bytes %d, capture has %d", snap["replay.bytes"], c.Bytes)
	}
}

// TestReplayRejectsCorrupt: structurally inconsistent captures error out
// of the rebuild instead of panicking or mis-replaying.
func TestReplayRejectsCorrupt(t *testing.T) {
	// Craft captures by driving the recorder with synthetic strands.
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
	f0 := &sched.FutureTask{ID: 0}
	s := func(id uint64) *sched.Strand { return &sched.Strand{ID: id, Fut: f0} }
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
		"get before put": mk(func(r *trace.Recorder) {
			r.OnRoot(s(0))
			f1 := &sched.FutureTask{ID: 1, Parent: f0}
			r.OnCreate(s(0), &sched.Strand{ID: 1, Fut: f1}, s(2), s(3), f1)
			r.OnGet(s(2), s(4), f1)
		}),
	}
	// A sync naming a strand no event placed, edited into a genuine
	// capture.
	unplaced := recordStandalone(t, progen.New(progen.Config{Seed: 1, MaxDepth: 3, MaxOps: 6}).Main())
	if i := slices.IndexFunc(unplaced.Events, func(ev trace.Event) bool { return ev.Op == trace.OpSync }); i >= 0 {
		unplaced.Events[i].A = unplaced.Strands + 100
	} else {
		t.Fatal("capture has no sync event")
	}
	cases["sync of unplaced strand"] = unplaced
	for name, c := range cases {
		for _, sub := range substrates {
			if _, err := replay.Run(c, replay.Options{Workers: 1, Reach: sub.sub}); err == nil {
				t.Errorf("%s %s: accepted", name, sub.name)
			}
		}
	}
}

// TestReplayConcurrentRuns is the -race worker stress: several replays
// of one shared capture run concurrently, each with parallel shards, so
// the race detector sees the full sharing surface (read-only capture,
// per-run reachability, per-shard histories over disjoint pages).
func TestReplayConcurrentRuns(t *testing.T) {
	p := progen.New(progen.Config{Seed: 11, MaxDepth: 5, MaxOps: 9, Addrs: 8})
	c, online := record(t, p.Main(), 4)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := substrates[i%len(substrates)]
			res, err := replay.Run(c, replay.Options{
				Workers: 8, Reach: sub.sub,
			})
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			if !sameAddrs(res.RacyAddrs, online) {
				t.Errorf("run %d (%s): replay %v, online %v", i, sub.name, res.RacyAddrs, online)
			}
		}()
	}
	wg.Wait()
}

// TestReplayReleasesArenaSlabs: a replay hands the rebuilt reachability's
// arena slabs back to their pools when it returns, loaded or streamed,
// so the next one draws them from there instead of the heap. With the
// pools emptied first and the collector off in between, a second replay
// must allocate less than the first by most of the slab bytes it held.
func TestReplayReleasesArenaSlabs(t *testing.T) {
	raw, _ := recordBytes(t, func(task *sched.Task) {
		for i := 0; i < 20000; i++ {
			task.Spawn(func(c *sched.Task) { c.Write(uint64(i)) })
		}
		task.Sync()
	}, 1)
	c, err := trace.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, streamed := range []bool{false, true} {
		run := func() (allocated, slabs uint64) {
			reg := obsv.NewRegistry()
			opts := replay.Options{Workers: 2, Stats: reg}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if streamed {
				_, err = replay.RunStream(bytes.NewReader(raw), opts)
			} else {
				_, err = replay.Run(c, opts)
			}
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			return after.TotalAlloc - before.TotalAlloc, uint64(reg.Snapshot()["core.arena_bytes"])
		}
		runtime.GC()
		runtime.GC() // twice: the first only moves a sync.Pool's contents to its victim cache
		restore := debug.SetGCPercent(-1)
		first, slabs := run()
		second, _ := run()
		debug.SetGCPercent(restore)
		if slabs == 0 {
			t.Fatalf("streamed=%v: the replay held no arena slabs; the test measures nothing", streamed)
		}
		if second+slabs/2 > first {
			t.Errorf("streamed=%v: second replay allocated %d bytes, first %d holding %d of slabs: slabs were not reused",
				streamed, second, first, slabs)
		}
	}
}
