// Package replay re-runs race detection offline from an sftrace capture
// (internal/trace), decoupling detection cost from the traced program:
// record once, detect anywhere, with parallelism bounded by the replay
// worker count instead of the program's span.
//
// Replay is one pipeline: a loader walks the capture once in file order,
// applying each structure event and handing each access block to a
// detection shard the moment it comes up, so the two stages overlap.
//
//  1. Rebuild. The loader feeds the structure events through the
//     pluggable reachability substrate (internal/core — OM lists or DePa
//     cords) exactly as the online tracer would have been, through
//     trace.Rebuild, which rejects a capture the engine cannot have
//     recorded. File order is a happens-before-consistent linearization
//     of the run — each recording worker's events in call order, a
//     worker's share written before any hand-off lets another worker see
//     its work (see internal/trace) — so every Tracer precondition holds.
//     The loader applies every event before forwarding any later block,
//     and a channel send happens-before its receive, so by the time a
//     shard queries Precedes(u, v) for a block's strand every label and
//     bitmap the query reads is published and immutable (labels are
//     frozen at construction; a strand's gp is set before the first block
//     naming it was recorded; OM label words are seqlock-validated
//     optimistic reads designed for exactly this concurrency).
//
//  2. Sharded detection. Access blocks are routed by shadow page across P
//     shards, each block visited once. A block is one page's read and
//     write sets, and a shard is the online detector's own access history
//     (detect.History) over the pages it owns and no others, handed each
//     block through the call the online flush makes (History.ApplyPage),
//     so there is one per-location kernel and the two cannot drift; it
//     shares nothing with the other shards but the read-only
//     reachability structures. Per-location detection is what the online
//     detector guarantees (a race is reported on a location iff one
//     exists there); a location lives in one page and a page in one
//     shard, so sharding changes no verdict (DESIGN.md §4). Races merge
//     deterministically at the end.
package replay

import (
	"io"
	"time"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/obsv"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// Options configures a replay run.
type Options struct {
	// Workers is the number of detection shards/workers; 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// RebuildWorkers is accepted and ignored: every replay rebuilds in
	// event order (EXPERIMENTS ABL13). The field stays only because the
	// frozen bench/adapter.go sets it.
	RebuildWorkers int
	// Reach selects the substrate the dag is rebuilt on (zero: DePa). No
	// public surface sets it: it stays only for the frozen bench/adapter.go
	// (its .depa row) and the cross-substrate tests, which use OM as their
	// reference, and goes with ROADMAP 1(a)/3.
	Reach core.Substrate
	// MaxRaces caps retained detailed race records (0 = 256), applied
	// after the deterministic merge.
	MaxRaces int
	// DedupByAddr retains at most one detailed record per address.
	// Exact under sharding: an address's page belongs to one shard.
	DedupByAddr bool
	// Stats, when non-nil, receives the replay.* gauges.
	Stats *obsv.Registry
}

// Result reports a completed replay.
type Result struct {
	// Races holds up to MaxRaces detailed reports after the
	// deterministic merge; RaceCount is the total number detected.
	Races     []detect.Race
	RaceCount uint64
	// RacyAddrs is the sorted set of addresses with at least one race —
	// the location-level verdict compared against online detection.
	RacyAddrs []uint64
	// Strands and Futures describe the replayed dag.
	Strands uint64
	Futures uint64
	// Events and Entries count structure events and access entries.
	Events  uint64
	Entries uint64
	// Queries is the number of Precedes queries across all workers.
	Queries uint64
	// Shards is the worker count used; MaxShardEntries the largest
	// number of access entries any one shard processed (shard balance:
	// MaxShardEntries ≈ Entries/Shards means near-perfect partitioning).
	Shards          int
	MaxShardEntries uint64
	// Rebuild is the loader's time walking the capture and applying its
	// structure events (all but handing blocks out), Detect the wall of the
	// whole pipeline, which contains it (the phases overlap), and Merge the
	// wall of the merge after it.
	Rebuild time.Duration
	Detect  time.Duration
	Merge   time.Duration
	// ReachMemBytes estimates the rebuilt reachability footprint.
	ReachMemBytes int
	// StreamPeakBlocks is the high-water mark of the bounded ready-queue
	// between the loader and the detection shards — bounded by
	// StreamQueueCap+Workers+1 blocks regardless of capture length — and
	// StreamPeakBytes what those blocks occupy, a fixed size each.
	StreamPeakBlocks int64
	StreamPeakBytes  int64
}

// Run replays a loaded capture, walking its events and blocks in file
// order. A page's blocks reach its one shard in file order either way, so
// its report is bit-identical to RunStream's on the capture's bytes.
func Run(c *trace.Capture, opts Options) (*Result, error) {
	return run(c.Cursor(), func() int64 { return c.Bytes }, opts)
}

// RunStream replays a capture directly from its byte stream, decoding it
// once in order: the capture is never resident in memory (peak in-flight
// blocks are bounded by StreamQueueCap + Workers + 1, independent of trace
// length).
func RunStream(r io.Reader, opts Options) (*Result, error) {
	dec, err := trace.OpenStream(r)
	if err != nil {
		return nil, err
	}
	return run(dec.Next, dec.Bytes, opts)
}

// run is the pipeline: the loader walks the capture through next, a
// trace.Stream's or a loaded capture's Cursor, and reads its encoded size
// from bytes after io.EOF. It stops at the first error; the trailer check
// inside a Stream means a clean io.EOF is a complete, verified capture.
func run(next func() (*trace.Event, *trace.AccessBlock, error), bytes func() int64, opts Options) (*Result, error) {
	if err := opts.Reach.Validate(); err != nil {
		return nil, err
	}
	reach := core.New(core.Config{Reach: opts.Reach})
	// The Result holds only values, so the arena slabs go back to their
	// pools on every return path, after it is assembled.
	defer reach.Release()
	start := time.Now()
	pl := startShards(reach, opts)
	rb := &trace.Rebuild{Reach: reach}
	res := &Result{}
	var err error
	for err == nil {
		var ev *trace.Event
		var blk *trace.AccessBlock
		if ev, blk, err = next(); err != nil {
			break
		}
		if ev != nil {
			err = rb.Apply(reach, ev)
		} else {
			var s *sched.Strand
			if s, err = rb.Block(blk); err == nil {
				pl.dispatch(s, blk)
			}
		}
	}
	// The loader's time outside handing blocks out, timed per batch: a
	// clock read an event costs about what applying it does.
	res.Rebuild = time.Since(start) - pl.sending
	pl.wait()
	if err != io.EOF {
		return nil, err
	}
	if err = rb.Done(); err != nil {
		return nil, err
	}
	res.Strands, res.Futures, res.Events = rb.Counts()
	res.Detect = time.Since(start)
	pl.finish(res, bytes())
	return res, nil
}

// registerStats publishes the replay.* gauges for a completed run.
func registerStats(reg *obsv.Registry, res *Result, blocks, bytes, arena int64) {
	vals := map[string]int64{
		"replay.events":             int64(res.Events),
		"replay.entries":            int64(res.Entries),
		"replay.blocks":             blocks,
		"replay.shards":             int64(res.Shards),
		"replay.max_shard_entries":  int64(res.MaxShardEntries),
		"replay.bytes":              bytes,
		"replay.wall_ns":            int64(res.Detect + res.Merge),
		"replay.rebuild_ns":         int64(res.Rebuild),
		"replay.detect_ns":          int64(res.Detect),
		"replay.merge_ns":           int64(res.Merge),
		"replay.queries":            int64(res.Queries),
		"replay.races":              int64(res.RaceCount),
		"replay.stream_peak_blocks": res.StreamPeakBlocks,
		"replay.stream_peak_bytes":  res.StreamPeakBytes,
		// The slabs go back to their pools when the replay returns; the
		// gauge keeps what the rebuilt reachability held.
		"core.arena_bytes": arena,
	}
	for name, v := range vals {
		reg.RegisterFunc(name, func() int64 { return v })
	}
}
