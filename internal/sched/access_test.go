package sched_test

import (
	"math/bits"
	"slices"
	"sync/atomic"
	"testing"

	"sforder/internal/accbuf"
	"sforder/internal/obsv"
	"sforder/internal/sched"
)

// buffering is a page sink of the history's shape: its Read and Write keep
// the access by sched's rule, its gate is skip, and it counts the calls it
// gets and the pages and entries drained to it.
type buffering struct {
	skip                  bool
	calls, pages, entries atomic.Int64
}

func (c *buffering) Read(s *sched.Strand, addr uint64) {
	c.calls.Add(1)
	sched.Keep(s, addr, accbuf.AccessRead, c.ApplyPage)
}

func (c *buffering) Write(s *sched.Strand, addr uint64) {
	c.calls.Add(1)
	sched.Keep(s, addr, accbuf.AccessWrite, c.ApplyPage)
}

func (c *buffering) SkipCovered() bool { return c.skip }

func (c *buffering) ApplyPage(s *sched.Strand, page uint64, reads, writes *accbuf.SlotSet) {
	c.pages.Add(1)
	for w := range reads {
		c.entries.Add(int64(bits.OnesCount64(reads[w]) + bits.OnesCount64(writes[w])))
	}
}

func (c *buffering) StrandClose(s *sched.Strand) { sched.CloseBuffer(s, c.ApplyPage) }

func (c *buffering) reset() {
	c.calls.Store(0)
	c.pages.Store(0)
	c.entries.Store(0)
}

// wrapped hides everything but the two hooks of what it wraps.
type wrapped struct {
	sched.AccessChecker
	sched.StrandCloser
}

// TestOnlyCoveredAccessesAreSkipped: sched keeps a sink's accesses itself —
// no call reaches the sink but the drains — only when the sink itself said
// it may and the run counts nothing; otherwise every access reaches the
// sink's Read or Write. Either way the same entries are drained: the
// buffer keeps an access unless an earlier one covers it — a read after
// the strand's read or write, a write after its write, and never a write
// after a mere read.
func TestOnlyCoveredAccessesAreSkipped(t *testing.T) {
	const addrs, rounds = 600, 5 // three shadow pages
	main := func(t *sched.Task) {
		for r := 0; r < rounds; r++ {
			for a := uint64(0); a < addrs; a++ {
				t.Read(a)  // new in round 0
				t.Read(a)  // covered
				t.Write(a) // new in round 0: a read does not cover a write
				t.Write(a) // covered
				t.Read(a)  // covered by the write
			}
		}
	}
	const all, kept = 5 * addrs * rounds, 2 * addrs
	for _, tc := range []struct {
		name  string
		opts  func(c *buffering) sched.Options
		skip  bool
		calls int64
	}{
		{"skipping", func(c *buffering) sched.Options { return sched.Options{Checker: c} }, true, 0},
		{"sink says no", func(c *buffering) sched.Options { return sched.Options{Checker: c} }, false, all},
		{"counting", func(c *buffering) sched.Options { return sched.Options{Checker: c, Stats: obsv.NewRegistry()} }, true, all},
		{"wrapped", func(c *buffering) sched.Options { return sched.Options{Checker: wrapped{c, c}} }, true, all},
	} {
		for _, serial := range []bool{true, false} {
			c := &buffering{skip: tc.skip}
			opts := tc.opts(c)
			opts.Serial, opts.Workers = serial, 2
			counts, err := sched.Run(opts, main)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.calls.Load(); got != tc.calls {
				t.Errorf("%s, serial=%v: the sink got %d of %d accesses, want %d", tc.name, serial, got, all, tc.calls)
			}
			if got := c.entries.Load(); got != kept {
				t.Errorf("%s, serial=%v: %d entries drained, want the %d kept", tc.name, serial, got, kept)
			}
			if opts.Stats != nil && (counts.Reads != 3*addrs*rounds || counts.Writes != 2*addrs*rounds) {
				t.Errorf("%s, serial=%v: counted %d reads and %d writes, the program makes %d and %d",
					tc.name, serial, counts.Reads, counts.Writes, 3*addrs*rounds, 2*addrs*rounds)
			}
		}
	}
}

// logging is a checker that is no sink: it lists the accesses it gets, in
// order (one worker only).
type logging struct{ addrs []uint64 }

func (c *logging) Read(s *sched.Strand, addr uint64)  { c.addrs = append(c.addrs, addr) }
func (c *logging) Write(s *sched.Strand, addr uint64) { c.addrs = append(c.addrs, addr|1<<63) }

// TestRangesReachTheChecker: a range goes into a sink's buffer a page at a
// time with no call, and to any other checker — a wrapper, or a sink whose
// gate a counting run shuts, included — as one Read or Write per address,
// in address order; the sink is drained the same pages and entries either
// way. Counted, a range is its n accesses, and an empty or negative range
// is nothing at all.
func TestRangesReachTheChecker(t *testing.T) {
	main := func(t *sched.Task) {
		t.ReadRange(100, 300) // two shadow pages
		t.WriteRange(250, 10)
		t.ReadRange(7, 0)
		t.WriteRange(7, -3)
	}
	var want []uint64
	for a := uint64(100); a < 400; a++ {
		want = append(want, a)
	}
	for a := uint64(250); a < 260; a++ {
		want = append(want, a|1<<63)
	}
	c := &buffering{skip: true}
	for _, tc := range []struct {
		name          string
		checker       sched.AccessChecker
		counted, sink bool // a run with stats; c is (behind) the checker
		calls         int64
	}{
		{"page sink", c, false, true, 0},
		{"page sink, counted", c, true, true, 310},
		{"wrapped", wrapped{c, c}, false, true, 310},
		{"not a sink", &logging{}, true, false, 0},
		{"no checker", nil, true, false, 0},
	} {
		c.reset()
		opts := sched.Options{Serial: true, Checker: tc.checker}
		if tc.counted {
			opts.Stats = obsv.NewRegistry()
		}
		counts, err := sched.Run(opts, main)
		if err != nil {
			t.Fatal(err)
		}
		if c.calls.Load() != tc.calls {
			t.Errorf("%s: %d single calls, want %d", tc.name, c.calls.Load(), tc.calls)
		}
		if tc.sink && (c.pages.Load() != 2 || c.entries.Load() != 310) {
			t.Errorf("%s: %d pages and %d entries drained, want 2 and 310", tc.name, c.pages.Load(), c.entries.Load())
		}
		if tc.counted && (counts.Reads != 300 || counts.Writes != 10) {
			t.Errorf("%s: counted %d reads and %d writes, want 300 and 10", tc.name, counts.Reads, counts.Writes)
		}
		if log, ok := tc.checker.(*logging); ok && !slices.Equal(log.addrs, want) {
			t.Errorf("the checker that is no sink got %d accesses, want the %d of the ranges in address order", len(log.addrs), len(want))
		}
	}
}

// TestNewStrandStartsWithNoBuffer: a strand's buffer says what that strand
// did, so the strands a spawn, a sync, a create and a get begin — child,
// continuation, join strand, future body, get strand — must start with
// none, and their first access to an address the strand before them
// covered must be kept.
func TestNewStrandStartsWithNoBuffer(t *testing.T) {
	for _, serial := range []bool{true, false} {
		c := &buffering{skip: true}
		// begins checks the strand tk is on now: no buffer yet, and a write
		// of 7 — which every strand before it has made — is kept.
		begins := func(tk *sched.Task, what string) {
			if tk.Strand().Buf != nil {
				t.Errorf("serial=%v: the %s began with a buffer", serial, what)
			}
			tk.Write(7)
			if b := tk.Strand().Buf; b == nil || b.Pending() != 1 {
				t.Errorf("serial=%v: the %s's first write of 7 was not kept", serial, what)
			}
		}
		_, err := sched.Run(sched.Options{Serial: serial, Workers: 4, Checker: c}, func(tk *sched.Task) {
			begins(tk, "root")
			tk.Spawn(func(c *sched.Task) { begins(c, "child") })
			begins(tk, "continuation")
			tk.Sync()
			begins(tk, "join strand")
			f := tk.Create(func(c *sched.Task) any { begins(c, "future body"); return nil })
			begins(tk, "create's continuation")
			tk.Get(f)
			begins(tk, "get strand")
		})
		if err != nil {
			t.Fatal(err)
		}
		if c.entries.Load() != 7 {
			t.Errorf("serial=%v: %d entries drained, want the seven strands' writes", serial, c.entries.Load())
		}
	}
}
