package replay

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// StreamQueueCap bounds the access blocks resident between the loader and
// the shards. A block has one owner: the loader gathers up to batch of them
// before it hands them out, and the shards keep the rest, StreamQueueCap +
// 1 - batch split evenly, each queue one short of its share for the block
// in the shard's hands. That never exceeds StreamQueueCap + Workers + 1
// (queues are unbuffered past StreamQueueCap + 1 - batch shards), the
// constant bounding a replay's resident capture whatever its length.
const StreamQueueCap = 64

// batch is how many blocks the loader gathers before it hands them out. A
// shard sent blocks one at a time drains its queue, parks, and is woken for
// the next, which on a sparse capture costs more than applying the block
// (EXPERIMENTS ABL13).
const batch = 32

// ShardOf returns the detection shard owning shadow page page among p
// shards: the page directory's Fibonacci hash of the page, modulo p. A
// location lives in one page and a page in one shard, so one history sees
// every access to a location, in file order. Exported so tests can
// construct racing pairs that straddle a shard boundary.
func ShardOf(page uint64, p int) int {
	return int(page * 0x9e3779b97f4a7c15 >> 32 % uint64(p))
}

// job is an access block on its way to the shard owning its page, with its
// strand resolved.
type job struct {
	s   *sched.Strand
	blk trace.AccessBlock
}

// shard is one detection shard: an access history (the online detector's,
// detect.History) over the shadow pages ShardOf assigns it and no others,
// fed by its queue. Nothing here but the queue is touched by any other
// goroutine while the pipeline runs.
type shard struct {
	hist             *detect.History
	reach            *core.Reach // shared and, past the rebuild, read-only
	in               chan job
	entries, queries uint64
}

// Precedes implements detect.Reachability for the shard's history. It
// counts the shard's queries privately: core.Reach's own counter is one
// contended atomic, which independent shards must not serialize on.
func (sh *shard) Precedes(u, v *sched.Strand) bool {
	sh.queries++
	return sh.reach.PrecedesUncounted(u, v)
}

// pipeline is replay's detection stage: the shards and the dispatcher
// routing access blocks to them by shadow page.
type pipeline struct {
	shards []*shard
	reach  *core.Reach
	opts   Options
	wg     sync.WaitGroup
	// Jobs dispatched and not yet applied, their high-water mark, and jobs
	// dispatched in all; the last two, the jobs not yet handed out, and the
	// time spent handing them out only the dispatching goroutine touches.
	inBlocks           atomic.Int64
	peakBlocks, blocks int64
	pending            []job
	sending            time.Duration
}

// startShards starts opts.Workers detection shards querying reach. The
// histories keep every race record: the cap applies after the merge, which
// is what makes the truncated report the same for every shard count.
func startShards(reach *core.Reach, opts Options) *pipeline {
	p := cmp.Or(max(opts.Workers, 0), runtime.GOMAXPROCS(0))
	pl := &pipeline{shards: make([]*shard, p), reach: reach, opts: opts, pending: make([]job, 0, batch)}
	for i := range pl.shards {
		sh := &shard{reach: reach, in: make(chan job, max((StreamQueueCap+1-batch)/p-1, 0))}
		sh.hist = detect.NewHistory(detect.Options{Reach: sh, MaxRaces: math.MaxInt, DedupByAddr: opts.DedupByAddr})
		pl.shards[i] = sh
		pl.wg.Add(1)
		go func() {
			defer pl.wg.Done()
			for j := range sh.in {
				sh.hist.ApplyPage(j.s, j.blk.Page, &j.blk.Reads, &j.blk.Writes)
				sh.entries += uint64(j.blk.Entries())
				pl.inBlocks.Add(-1)
			}
		}()
	}
	return pl
}

// dispatch takes an access block of strand s for the shard owning its page
// and hands out the gathered blocks once there are batch of them.
func (pl *pipeline) dispatch(s *sched.Strand, b *trace.AccessBlock) {
	pl.peakBlocks = max(pl.peakBlocks, pl.inBlocks.Add(1))
	pl.blocks++
	if pl.pending = append(pl.pending, job{s: s, blk: *b}); len(pl.pending) == batch {
		pl.flush()
	}
}

// flush hands the gathered blocks out, in order, each whole to the shard
// owning its page. A send blocks while the shard's queue is full: the
// backpressure.
func (pl *pipeline) flush() {
	t0 := time.Now()
	for i := range pl.pending {
		pl.shards[ShardOf(pl.pending[i].blk.Page, len(pl.shards))].in <- pl.pending[i]
	}
	pl.pending = pl.pending[:0]
	pl.sending += time.Since(t0)
}

// wait hands out the last blocks, closes the queues and returns once every
// shard has drained its own.
func (pl *pipeline) wait() {
	pl.flush()
	for _, sh := range pl.shards {
		close(sh.in)
	}
	pl.wg.Wait()
}

// finish folds the drained shards into res and publishes the gauges. The
// merge is deterministic: a shard's records depend only on the file order
// of its pages' accesses, so sorting by every field that tells two records
// apart makes the report — and what survives the MaxRaces cap —
// independent of shard interleaving and shard count.
func (pl *pipeline) finish(res *Result, bytes int64) {
	mergeStart := time.Now()
	res.Shards = len(pl.shards)
	var races []*detect.Race
	for _, sh := range pl.shards {
		res.Entries += sh.entries
		res.RaceCount += sh.hist.RaceCount()
		res.Queries += sh.queries
		res.MaxShardEntries = max(res.MaxShardEntries, sh.entries)
		for rs, i := sh.hist.Races(), 0; i < len(rs); i++ {
			races = append(races, &rs[i])
		}
		res.RacyAddrs = append(res.RacyAddrs, sh.hist.RacyAddrs()...)
	}
	// The shards keep every record, and a record is ~80 bytes: sort
	// pointers to them, then copy out only the ones the cap keeps.
	slices.SortFunc(races, func(a, b *detect.Race) int {
		switch {
		case a.Addr != b.Addr:
			return cmp.Compare(a.Addr, b.Addr)
		case a.PrevStrand != b.PrevStrand:
			return cmp.Compare(a.PrevStrand, b.PrevStrand)
		case a.CurStrand != b.CurStrand:
			return cmp.Compare(a.CurStrand, b.CurStrand)
		}
		return cmp.Or(cmp.Compare(a.Prev, b.Prev), cmp.Compare(a.Cur, b.Cur))
	})
	kept := races[:min(len(races), cmp.Or(pl.opts.MaxRaces, 256))]
	res.Races = slices.Grow(res.Races, len(kept))
	for _, r := range kept {
		res.Races = append(res.Races, *r)
	}
	slices.Sort(res.RacyAddrs)
	res.Merge = time.Since(mergeStart)
	res.ReachMemBytes = pl.reach.MemBytes()
	res.StreamPeakBlocks, res.StreamPeakBytes = pl.peakBlocks, pl.peakBlocks*int64(unsafe.Sizeof(job{}))
	if reg := pl.opts.Stats; reg != nil {
		pl.reach.RegisterStats(reg)
		registerStats(reg, res, pl.blocks, bytes, pl.reach.ArenaBytes())
	}
}
