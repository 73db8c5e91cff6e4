package replay

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sforder/internal/core"
	"sforder/internal/detect"
	"sforder/internal/sched"
	"sforder/internal/trace"
)

// StreamQueueCap is the ready-queue capacity of the pipeline: how many
// access blocks detection may lag behind the loader before the loader
// blocks. A block has one owner, so what is resident is the sum over the
// shards: together they may keep StreamQueueCap + 1 — split evenly, each
// queue one short of its share for the block in the shard's hands — and
// the loader holds one more. That never exceeds StreamQueueCap + Workers
// + 1 (queues are unbuffered past StreamQueueCap + 1 shards), the constant
// bounding a streamed replay's resident capture whatever its length.
const StreamQueueCap = 64

// ShardOf returns the detection shard owning addr among p shards: the
// page directory's Fibonacci hash of addr's shadow page, modulo p. A
// location lives in one page and a page in one shard, so one history sees
// every access to a location, in file order. Exported so tests can
// construct racing pairs that straddle a shard boundary.
func ShardOf(addr uint64, p int) int {
	return int((addr >> detect.PageBits) * 0x9e3779b97f4a7c15 >> 32 % uint64(p))
}

// job is a run of one access block's entries that lie on one shadow page,
// on its way to the shard owning the page.
type job struct {
	s     *sched.Strand
	addrs []uint64
	kinds []detect.AccessKind
}

// bytes is what the job counts for among the resident capture.
func (j job) bytes() int64 { return int64(len(j.addrs))*9 + 64 }

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

// apply folds a job's entries into the sets of slots read and written and
// hands them to the kernel, as the strand buffer behind a genuine block
// did. The sets keep no order within a slot beyond "read, then written",
// so an entry that needs one — a second read or write of a slot, a read of
// a slot already written — first applies what has gathered: an arbitrary
// capture keeps exact per-address file order, a genuine one never cuts.
func (sh *shard) apply(j job) {
	var sets [2]detect.SlotSet
	page := j.addrs[0] >> detect.PageBits
	for i, addr := range j.addrs {
		k := j.kinds[i] & 1
		w, bit := addr&(1<<detect.PageBits-1)>>6, uint64(1)<<(addr&63)
		if (sets[k][w]|sets[detect.AccessWrite][w])&bit != 0 {
			sh.hist.ApplyPage(j.s, page, &sets[detect.AccessRead], &sets[detect.AccessWrite])
			sets = [2]detect.SlotSet{}
		}
		sets[k][w] |= bit
	}
	sh.hist.ApplyPage(j.s, page, &sets[detect.AccessRead], &sets[detect.AccessWrite])
	sh.entries += uint64(len(j.addrs))
}

// pipeline is the detection stage both replay paths share: the shards and
// the dispatcher routing access blocks to them by shadow page.
type pipeline struct {
	shards []*shard
	reach  *core.Reach
	opts   Options
	wg     sync.WaitGroup
	// Jobs dispatched and not yet applied, and their high-water marks,
	// which only the dispatching goroutine touches.
	inBlocks, inBytes     atomic.Int64
	peakBlocks, peakBytes int64
}

// startShards starts opts.Workers detection shards querying reach. The
// histories keep every race record: the cap applies after the merge, which
// is what makes the truncated report the same for every shard count.
func startShards(reach *core.Reach, opts Options) *pipeline {
	p := cmp.Or(max(opts.Workers, 0), runtime.GOMAXPROCS(0))
	pl := &pipeline{shards: make([]*shard, p), reach: reach, opts: opts}
	for i := range pl.shards {
		sh := &shard{reach: reach, in: make(chan job, max((StreamQueueCap+1)/p-1, 0))}
		sh.hist = detect.NewHistory(detect.Options{Reach: sh, MaxRaces: math.MaxInt, DedupByAddr: opts.DedupByAddr})
		pl.shards[i] = sh
		pl.wg.Add(1)
		go func() {
			defer pl.wg.Done()
			for j := range sh.in {
				sh.apply(j)
				pl.inBlocks.Add(-1)
				pl.inBytes.Add(-j.bytes())
			}
		}()
	}
	return pl
}

// dispatch routes an access block of an introduced strand to the shard
// owning its page, visiting each entry once. A genuine block is one page
// of one strand (accbuf.StrandBuffer drains by page); one that changes
// page is cut there, each run going to its own page's shard in block
// order. A send blocks while the shard's queue is full: the backpressure.
func (pl *pipeline) dispatch(st *store, b *trace.AccessBlock) (err error) {
	defer st.caught(&err)
	s, addrs, kinds := st.need(b.Strand), b.Addrs, b.Kinds
	for len(addrs) > 0 {
		page, n := addrs[0]>>detect.PageBits, 1
		for n < len(addrs) && addrs[n]>>detect.PageBits == page {
			n++
		}
		j := job{s: s, addrs: addrs[:n], kinds: kinds[:n]}
		pl.peakBlocks = max(pl.peakBlocks, pl.inBlocks.Add(1))
		pl.peakBytes = max(pl.peakBytes, pl.inBytes.Add(j.bytes()))
		pl.shards[ShardOf(addrs[0], len(pl.shards))].in <- j
		addrs, kinds = addrs[n:], kinds[n:]
	}
	return nil
}

// wait closes the queues and returns once every shard has drained its own.
func (pl *pipeline) wait() {
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
func (pl *pipeline) finish(res *Result, blocks, bytes int64) {
	mergeStart := time.Now()
	res.Shards = len(pl.shards)
	for _, sh := range pl.shards {
		res.RaceCount += sh.hist.RaceCount()
		res.Queries += sh.queries
		res.MaxShardEntries = max(res.MaxShardEntries, sh.entries)
		res.Races = append(res.Races, sh.hist.Races()...)
		res.RacyAddrs = append(res.RacyAddrs, sh.hist.RacyAddrs()...)
	}
	slices.SortFunc(res.Races, func(a, b detect.Race) int {
		return cmp.Or(cmp.Compare(a.Addr, b.Addr), cmp.Compare(a.PrevStrand, b.PrevStrand),
			cmp.Compare(a.CurStrand, b.CurStrand), cmp.Compare(a.Prev, b.Prev), cmp.Compare(a.Cur, b.Cur))
	})
	res.Races = res.Races[:min(len(res.Races), cmp.Or(pl.opts.MaxRaces, 256))]
	slices.Sort(res.RacyAddrs)
	res.Merge = time.Since(mergeStart)
	res.ReachMemBytes = pl.reach.MemBytes()
	if reg := pl.opts.Stats; reg != nil {
		pl.reach.RegisterStats(reg)
		registerStats(reg, res, blocks, bytes, pl.reach.ArenaBytes())
	}
}
