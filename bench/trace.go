package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// boundary names one layer boundary the traced run times from outside:
// a call from one repo package into the next, wrapped by adapter.go.
type boundary uint8

const (
	bPlace        boundary = iota // sched → core: one dag-event placement (spawn, create, sync, get)
	bPrecedes                     // detect → core: one Precedes query
	bRead                         // sched → detect: History.Read
	bWrite                        // sched → detect: History.Write
	bClose                        // sched → detect: History.StrandClose (batch flush)
	bTap                          // detect → trace: Recorder.TapAccesses
	bRecord                       // sched → trace: Recorder.Read/Write as the checker itself
	bRecordClose                  // sched → trace: Recorder.StrandClose
	bLoad                         // trace.Load
	bIndex                        // Capture.Index
	bStream                       // trace.OpenStream + Next until EOF
	bBuildTable                   // depa.BuildTable
	bReplay                       // replay.Run
	bReplayStream                 // replay.RunStream
	nBoundaries
)

var boundaryName = [nBoundaries]string{
	"core.place", "core.precedes", "detect.read", "detect.write", "detect.close",
	"trace.tap", "trace.record", "trace.record_close", "trace.load", "trace.index",
	"trace.stream", "depa.build_table", "replay.run", "replay.run_stream",
}

// samplePeriod is the mean number of calls per sampled one. A clock
// pair costs ~60 ns here, several times a state-word read, so every
// call is counted but the access boundaries are sampled 1 in 64; the
// dag-event boundaries are 100× rarer and are sampled 1 in 8 or 16 so
// their p99 has samples behind it; the offline calls happen once per
// run and are always timed. Every call of a boundary has the same
// chance of being sampled whatever it is nested in, so the histogram is
// an unbiased sample of the boundary's latencies.
var samplePeriod = [nBoundaries]uint32{
	bPlace: 8, bPrecedes: 64, bRead: 64, bWrite: 64, bClose: 16,
	bTap: 16, bRecord: 64, bRecordClose: 16, bLoad: 1, bIndex: 1, bStream: 1,
	bBuildTable: 1, bReplay: 1, bReplayStream: 1,
}

const histBuckets = 40 // log2 ns buckets: up to 2^39 ns ≈ 9 minutes

// acc is one boundary's accumulator. The timed calls give the latency
// histogram; a sampled boundary's busy total is not taken from them
// (measure.go differences walls for that), so Busy is only read where
// every call is timed — the offline entry points.
type acc struct {
	Count   uint64 // every call (filled in by tracer.stats)
	Sampled uint64 // timed calls
	Busy    int64  // Σ duration of timed calls, clock cost removed, ns
	Hist    [histBuckets]uint64
}

func (a *acc) add(o *acc) {
	a.Count += o.Count
	a.Sampled += o.Sampled
	a.Busy += o.Busy
	for i, h := range o.Hist {
		a.Hist[i] += h
	}
}

// percentile reads the q-quantile of the sampled durations off the log2
// histogram, interpolating geometrically inside the bucket.
func (a *acc) percentile(q float64) float64 {
	if a.Sampled == 0 {
		return math.NaN()
	}
	target := q * float64(a.Sampled)
	seen := 0.0
	for i, h := range a.Hist {
		if h == 0 {
			continue
		}
		if seen+float64(h) >= target {
			if i == 0 {
				return 0.5
			}
			lo := math.Exp2(float64(i - 1))
			return lo * math.Exp2((target-seen)/float64(h))
		}
		seen += float64(h)
	}
	return math.Exp2(histBuckets - 1)
}

func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns)) // 1 → 1, 2..3 → 2, 4..7 → 3
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// layerStats is the per-boundary table one traced cell (or a sum of
// them) produced.
type layerStats [nBoundaries]acc

func (ls *layerStats) add(o *layerStats) {
	for b := range ls {
		ls[b].add(&o[b])
	}
}

// span is one timed call kept raw for the span file.
type span struct {
	b          boundary
	parent     int32 // index of the enclosing span on the same lane, -1 = the cell's root span
	start, end int64 // ns since the process epoch
}

type openSpan struct {
	b       boundary
	sampled bool  // feeds b's accumulator; false = timed only so the enclosing span's tree is whole
	idx     int32 // index into spans, -1 when raw spans are off
	start   int64
	clock   int64 // what two back-to-back clock reads took just before start
}

// lane holds one worker's accumulators and open-span stack. A lane is
// only touched by its worker (sched's LaneTracer exclusivity), so
// nothing here is atomic; the trailing pad keeps two lanes off one
// cache line.
type lane struct {
	// until[b] counts down the calls to b's next sampled one; it was set
	// to armed[b], and done[b] calls went by in the gaps before that. The
	// call count is kept this way so that an unsampled call costs one
	// decrement and two compares.
	until [nBoundaries]int32
	armed [nBoundaries]int32
	done  [nBoundaries]uint64
	depth int // open timed spans
	stats layerStats
	rng   uint64
	open  [4]openSpan
	keep  bool
	spans []span
	_     [64]byte
}

var (
	epoch      = time.Now()
	tracerSeed atomic.Uint64
)

// stamp is a monotonic clock read: one nanotime call, half the cost of
// time.Now.
func stamp() int64 { return int64(time.Since(epoch)) }

func (l *lane) arm(b boundary) {
	l.done[b] += uint64(l.armed[b])
	gap := int32(1)
	if p := samplePeriod[b]; p > 1 {
		// xorshift64; uniform on [1, 2p-1] has mean p and breaks any
		// lock step with a loop in the traced program.
		l.rng ^= l.rng << 13
		l.rng ^= l.rng >> 7
		l.rng ^= l.rng << 17
		gap = 1 + int32(l.rng%uint64(2*p-1))
	}
	l.until[b], l.armed[b] = gap, gap
}

// enter counts one call across boundary b, a boundary crossed from
// sched and so never inside another span, and reports whether it is
// timed; a timed call must be followed by exit. Small enough to inline
// into the wrappers.
func (l *lane) enter(b boundary) bool {
	l.until[b]--
	if l.until[b] > 0 {
		return false
	}
	return l.enterSlow(b)
}

// enterNested is enter for the boundaries crossed from inside another
// layer (detect → core, detect → trace). Such a call is timed when its
// own sampling fires, and also whenever it runs inside a timed span — so
// the span file holds whole trees and a reader can take a span's self
// time as its duration minus the spans whose parent it is.
func (l *lane) enterNested(b boundary) bool {
	n := l.until[b] - 1
	l.until[b] = n
	return (n <= 0 || l.depth > 0) && l.enterSlow(b)
}

func (l *lane) enterSlow(b boundary) bool {
	sampled := l.until[b] <= 0
	if sampled {
		l.arm(b)
	}
	if l.depth == len(l.open) {
		return false
	}
	l.enterTimed(b, sampled)
	return true
}

func (l *lane) enterTimed(b boundary, sampled bool) {
	o := &l.open[l.depth]
	*o = openSpan{b: b, sampled: sampled, idx: -1}
	if l.keep {
		parent := int32(-1)
		if l.depth > 0 {
			parent = l.open[l.depth-1].idx
		}
		o.idx = int32(len(l.spans))
		l.spans = append(l.spans, span{b: b, parent: parent})
	}
	l.depth++
	// Two reads back to back first: they bring the clock's code and data
	// into the cache — a sampled call is 1 in 64, so they are cold — and
	// their distance is the clock cost that lands inside this span, here
	// and now rather than in a calibration loop.
	c := stamp()
	o.start = stamp()
	o.clock = o.start - c
}

func (l *lane) exit() {
	end := stamp()
	l.depth--
	o := &l.open[l.depth]
	if l.depth > 0 {
		// Timing this call put three clock reads inside the enclosing span.
		l.open[l.depth-1].clock += 3 * o.clock
	}
	if o.sampled {
		dur := max(0, end-o.start-o.clock)
		a := &l.stats[o.b]
		a.Sampled++
		a.Busy += dur
		a.Hist[bucketOf(dur)]++
	}
	if o.idx >= 0 {
		s := &l.spans[o.idx]
		s.start, s.end = o.start, end
	}
}

// tracer is the state of one traced cell of one program: a root span
// and one lane per worker. Lane 0 exists from the start and never
// moves, so the access wrappers can hold on to it.
type tracer struct {
	cell, program string
	keep          bool
	start, end    int64
	lanes         []*lane
}

func newTracer(cell, program string, keepSpans bool) *tracer {
	t := &tracer{cell: cell, program: program, keep: keepSpans}
	t.setLanes(1)
	return t
}

// setLanes grows the lanes to n before the run starts.
func (t *tracer) setLanes(n int) {
	for len(t.lanes) < n {
		l := &lane{keep: t.keep, rng: (tracerSeed.Add(1) + 1) * 0x9e3779b97f4a7c15}
		for b := range l.until {
			l.arm(boundary(b))
		}
		t.lanes = append(t.lanes, l)
	}
}

func (t *tracer) begin()  { t.start = stamp() }
func (t *tracer) finish() { t.end = stamp() }

// timed runs fn as one always-timed call across b on lane 0 — the plain
// timer around the offline entry points. A nil tracer runs fn bare, so
// the end-to-end cells share the call sites without any wrapper.
func (t *tracer) timed(b boundary, fn func() error) error {
	if t == nil {
		return fn()
	}
	l := t.lanes[0]
	l.done[b]++
	l.enterTimed(b, true)
	err := fn()
	l.exit()
	return err
}

// stats sums the lanes, call counts included.
func (t *tracer) stats() *layerStats {
	ls := &layerStats{}
	for _, l := range t.lanes {
		ls.add(&l.stats)
		for b := range ls {
			ls[b].Count += l.done[b] + uint64(l.armed[b]-l.until[b])
		}
	}
	return ls
}

// spanSink collects the raw spans of finished tracers and writes them
// out, one JSON object per line, each time a traced run ends — not once
// at exit: a million retained spans are tens of MB of live heap, and
// with that ballast the collector runs so much less often that the next
// workload measures a third faster than it does in a fresh process.
// Ids are unique within the file; a span's parent is the id of the span
// that caused it, and every span of one traced cell shares that cell's
// root id as "trace". A nil sink keeps nothing.
type spanSink struct {
	w      *bufio.Writer
	next   int // id of the next span written
	traces []*tracer
}

func newSpanSink(w io.Writer) *spanSink { return &spanSink{w: bufio.NewWriter(w)} }

func (k *spanSink) take(t *tracer) {
	if k != nil && t.keep {
		k.traces = append(k.traces, t)
	}
}

// flush writes the spans taken so far and lets go of them.
func (k *spanSink) flush() error {
	if k == nil {
		return nil
	}
	for _, t := range k.traces {
		root := k.next
		k.next++
		fmt.Fprintf(k.w, `{"id":%d,"trace":%d,"parent":-1,"name":%q,"program":%q,"lane":0,"start_ns":%d,"end_ns":%d}`+"\n",
			root, root, "cell."+t.cell, t.program, t.start, t.end)
		for li, l := range t.lanes {
			base := k.next
			for _, s := range l.spans {
				parent := root
				if s.parent >= 0 {
					parent = base + int(s.parent)
				}
				fmt.Fprintf(k.w, `{"id":%d,"trace":%d,"parent":%d,"name":%q,"program":%q,"lane":%d,"start_ns":%d,"end_ns":%d}`+"\n",
					k.next, root, parent, boundaryName[s.b], t.program, li, s.start, s.end)
				k.next++
			}
		}
	}
	k.traces = nil
	return k.w.Flush()
}
