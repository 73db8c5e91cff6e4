// Package replay re-runs race detection offline from an sftrace capture
// (internal/trace), decoupling detection cost from the traced program:
// record once, detect anywhere, with parallelism bounded by the replay
// worker count instead of the program's span.
//
// Replay has two phases:
//
//  1. Rebuild. The capture's structure events are fed, in file order,
//     through the pluggable reachability substrate (internal/core — OM
//     lists or DePa cords) exactly as the online tracer would have been.
//     File order is a happens-before-consistent linearization of the run
//     — each recording worker's events in call order, a worker's share
//     written before any hand-off lets another worker see its work (see
//     internal/trace) — so every Tracer precondition holds; every path
//     applies them through trace.Rebuild, which rejects a capture the
//     engine cannot have recorded. With
//     Options.RebuildWorkers > 1 and a label substrate, the rebuild
//     itself parallelizes: a serial index pass (trace.PathIndex)
//     partitions the strand forest, then P workers construct the
//     immutable fork-path labels concurrently over
//     independent segments (depa.BuildTable) with no OM list and no
//     locks — only the label binding and gp/cp bitmap pass stays
//     serial. Either way,
//     after the rebuild the reachability state is read-only — frozen
//     labels any number of workers can query lock-free.
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
	"unsafe"

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
	// RebuildWorkers is the number of rebuild workers constructing the
	// reachability labels (values below 2 mean the serial event-order
	// rebuild). With more than one worker and the label substrate
	// (SubstrateDePa), the rebuild switches to the precomputed-table path: a serial index pass over the structure
	// events, then parallel label construction over independent
	// segments (depa.BuildTable, core.Offline). The OM substrate has no
	// precomputable labels and always rebuilds serially.
	RebuildWorkers int
	// Reach selects the reachability substrate the dag is rebuilt on.
	// SubstrateDePa is the natural offline choice (frozen immutable
	// labels, lock-free queries); both work.
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
	// Rebuild, Detect and Merge are the wall-clock times of the three
	// phases. Under streaming, Rebuild is the loader time spent applying
	// structure events and Detect the full pipeline wall (the phases
	// overlap by construction).
	Rebuild time.Duration
	Detect  time.Duration
	Merge   time.Duration
	// ReachMemBytes estimates the rebuilt reachability footprint.
	ReachMemBytes int
	// RebuildWorkers is the rebuild worker count actually used;
	// RebuildParallel reports whether the precomputed-label-table path
	// ran (false = serial event-order rebuild).
	RebuildWorkers  int
	RebuildParallel bool
	// RebuildLabels counts the table labels built by the parallel path.
	// RebuildWork is the total label-fill work (label + chunk units)
	// and RebuildMaxSegment the largest single worker's share of it:
	// the parallel label construction's critical path is
	// RebuildMaxSegment of RebuildWork units, so
	// RebuildMaxSegment·workers ≈ RebuildWork certifies each worker did
	// ~1/W of the construction (the wall-clock speedup on real
	// multi-core hardware).
	RebuildLabels     uint64
	RebuildWork       uint64
	RebuildMaxSegment uint64
	// Streamed reports the pipelined path (RunStream); StreamPeakBlocks is
	// the high-water mark of the bounded ready-queue between the loader and
	// the detection shards — bounded by StreamQueueCap+Workers+1 blocks
	// regardless of capture length — and StreamPeakBytes what those blocks
	// occupy, a fixed size each.
	Streamed         bool
	StreamPeakBlocks int64
	StreamPeakBytes  int64
}

// Run replays a capture and returns the offline detection result: the
// rebuild over the loaded structure events, then the pipeline over the
// loaded access blocks.
func Run(c *trace.Capture, opts Options) (*Result, error) {
	if err := opts.Reach.Validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Strands: c.Strands, Futures: uint64(c.Futures),
		Events: uint64(len(c.Events)), Entries: c.Entries, RebuildWorkers: 1,
	}
	rebuildStart := time.Now()
	var (
		reach *core.Reach
		tr    sched.Tracer
		err   error
	)
	// The precomputed-table path needs a label substrate: an OM list is
	// one mutable structure that must be built in event order, so OM
	// rebuilds in event order regardless of RebuildWorkers.
	if opts.RebuildWorkers > 1 && opts.Reach == core.SubstrateDePa {
		res.RebuildWorkers, res.RebuildParallel = opts.RebuildWorkers, true
		var tt *tableTracer
		if tt, err = newTableTracer(c, res); err == nil {
			reach, tr = tt.off.Reach(), tt
		}
	} else {
		reach = core.New(core.Config{Reach: opts.Reach})
		// The Result holds only values, so the arena slabs go back to
		// their pools on every return path, after it is assembled.
		defer reach.Release()
		tr = reach
	}
	rb := &trace.Rebuild{Reach: reach}
	if err == nil {
		err = rb.Run(c, tr, nil)
	}
	if err != nil {
		return nil, err
	}
	res.Rebuild = time.Since(rebuildStart)

	detectStart := time.Now()
	pl := startShards(reach, opts)
	for i := range c.Blocks {
		// The rebuild has checked every block's strand.
		pl.dispatch(rb.Strand(c.Blocks[i].Strand), &c.Blocks[i])
	}
	pl.wait()
	res.Detect = time.Since(detectStart)
	pl.finish(res, int64(len(c.Blocks)), c.Bytes)
	return res, nil
}

// RunStream replays a capture directly from its byte stream, pipelining
// the two phases: the loader thread decodes the file once in order,
// applying structure events to the growing reachability state and
// handing each access block to the shard owning its page the moment it is
// read — detection of early blocks overlaps decoding of later ones, and
// the capture is never resident in memory (peak in-flight blocks are
// bounded by StreamQueueCap + Workers + 1, independent of trace
// length).
//
// Soundness is the same order argument as the barriered path, carried
// by the queues: file order is an HB-consistent linearization (the
// recorder writes a worker's lane before each hand-off), the
// loader applies every structure event before forwarding any later
// block, and a channel send happens-before its receive — so by the time
// a shard queries Precedes(u, v) for a block's strand, every label and
// bitmap the query reads is already published and immutable (labels are
// frozen at construction; a strand's gp is set before the first block
// naming it was recorded; OM label words are seqlock-validated
// optimistic reads designed for exactly this concurrency). A page's
// blocks reach its one shard in file order, so verdicts, and the merged
// report, are bit-identical to replay.Run on the loaded capture.
//
// The rebuild is the pipeline's producer stage, so
// Options.RebuildWorkers does not apply (a precomputed label table
// needs the whole structure stream first — that is the barriered
// path's trade).
func RunStream(r io.Reader, opts Options) (*Result, error) {
	if err := opts.Reach.Validate(); err != nil {
		return nil, err
	}
	dec, err := trace.OpenStream(r)
	if err != nil {
		return nil, err
	}
	reach := core.New(core.Config{Reach: opts.Reach})
	defer reach.Release() // as in Run

	// The loader: decode in order, apply structure events inline, route
	// access blocks. It stops at the first error; the trailer check
	// inside the Stream means a clean io.EOF is a complete, verified
	// capture.
	start := time.Now()
	pl := startShards(reach, opts)
	rb := &trace.Rebuild{Reach: reach}
	res := &Result{RebuildWorkers: 1, Streamed: true}
	for err == nil {
		var ev *trace.Event
		var blk *trace.AccessBlock
		if ev, blk, err = dec.Next(); err != nil {
			break
		}
		if ev != nil {
			t0 := time.Now()
			err = rb.Apply(reach, ev)
			res.Rebuild += time.Since(t0)
		} else {
			var s *sched.Strand
			if s, err = rb.Block(blk); err == nil {
				pl.dispatch(s, blk)
			}
		}
	}
	pl.wait()
	if err != io.EOF {
		return nil, err
	}
	if err = rb.Done(); err != nil {
		return nil, err
	}
	res.Strands, res.Futures = dec.Strands(), uint64(dec.Futures())
	res.Events, res.Entries = dec.Events(), dec.Entries()
	res.Detect = time.Since(start)
	res.StreamPeakBlocks, res.StreamPeakBytes = pl.peakBlocks, pl.peakBlocks*int64(unsafe.Sizeof(job{}))
	pl.finish(res, int64(dec.Blocks()), dec.Bytes())
	return res, nil
}

// registerStats publishes the replay.* gauges for a completed run.
func registerStats(reg *obsv.Registry, res *Result, blocks, bytes, arena int64) {
	wall := res.Rebuild + res.Detect + res.Merge
	if res.Streamed {
		// Streamed Detect is the full pipeline wall and already
		// contains the (overlapped) rebuild time.
		wall = res.Detect + res.Merge
	}
	flag := map[bool]int64{true: 1}
	vals := map[string]int64{
		"replay.events":              int64(res.Events),
		"replay.entries":             int64(res.Entries),
		"replay.blocks":              blocks,
		"replay.shards":              int64(res.Shards),
		"replay.max_shard_entries":   int64(res.MaxShardEntries),
		"replay.bytes":               bytes,
		"replay.wall_ns":             int64(wall),
		"replay.rebuild_ns":          int64(res.Rebuild),
		"replay.detect_ns":           int64(res.Detect),
		"replay.merge_ns":            int64(res.Merge),
		"replay.queries":             int64(res.Queries),
		"replay.races":               int64(res.RaceCount),
		"replay.rebuild_workers":     int64(res.RebuildWorkers),
		"replay.rebuild_parallel":    flag[res.RebuildParallel],
		"replay.rebuild_labels":      int64(res.RebuildLabels),
		"replay.rebuild_work":        int64(res.RebuildWork),
		"replay.rebuild_max_segment": int64(res.RebuildMaxSegment),
		"replay.streamed":            flag[res.Streamed],
		"replay.stream_peak_blocks":  res.StreamPeakBlocks,
		"replay.stream_peak_bytes":   res.StreamPeakBytes,
		// The slabs go back to their pools when the replay returns; the
		// gauge keeps what the rebuilt reachability held.
		"core.arena_bytes": arena,
	}
	for name, v := range vals {
		reg.RegisterFunc(name, func() int64 { return v })
	}
}
