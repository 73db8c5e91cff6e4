package sched_test

import (
	"slices"
	"sync/atomic"
	"testing"

	"sforder/internal/accbuf"
	"sforder/internal/obsv"
	"sforder/internal/sched"
)

// buffering is a checker of the history's shape: it keeps each strand's
// accesses in the strand's buffer from the first one to the close, lets the
// engine skip the covered ones when skip is set, and counts the calls it
// gets.
type buffering struct {
	skip          bool
	calls, ranges atomic.Int64
}

func (c *buffering) Read(s *sched.Strand, addr uint64)  { c.add(s, addr, accbuf.AccessRead) }
func (c *buffering) Write(s *sched.Strand, addr uint64) { c.add(s, addr, accbuf.AccessWrite) }
func (c *buffering) SkipCovered() bool                  { return c.skip }

func (c *buffering) AccessRange(s *sched.Strand, addr uint64, n int, kind accbuf.AccessKind) {
	c.ranges.Add(1)
	s.Buffer().AddRange(addr, n, kind)
}

func (c *buffering) add(s *sched.Strand, addr uint64, kind accbuf.AccessKind) {
	c.calls.Add(1)
	if s.Buf == nil {
		s.Buf = accbuf.Get()
	}
	s.Buf.Add(addr, kind)
}

func (c *buffering) StrandClose(s *sched.Strand) {
	if b := s.Buf; b != nil {
		s.Buf = nil
		b.Release()
	}
}

// wrapped hides everything but the two hooks of what it wraps.
type wrapped struct {
	sched.AccessChecker
	sched.StrandCloser
}

// TestOnlyCoveredAccessesAreSkipped: the engine keeps an access from the
// checker only when the checker itself said it may, the run counts
// nothing, and the strand's buffer covers the access — a read after the
// strand's read or write, a write after its write, and never a write
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
		{"skipping", func(c *buffering) sched.Options { return sched.Options{Checker: c} }, true, kept},
		{"checker says no", func(c *buffering) sched.Options { return sched.Options{Checker: c} }, false, all},
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
				t.Errorf("%s, serial=%v: the checker got %d of %d accesses, want %d", tc.name, serial, got, all, tc.calls)
			}
			if opts.Stats != nil && (counts.Reads != 3*addrs*rounds || counts.Writes != 2*addrs*rounds) {
				t.Errorf("%s, serial=%v: counted %d reads and %d writes, the program makes %d and %d",
					tc.name, serial, counts.Reads, counts.Writes, 3*addrs*rounds, 2*addrs*rounds)
			}
		}
	}
}

// logging is a checker that takes no ranges: it lists the accesses it
// gets, in order (one worker only).
type logging struct{ addrs []uint64 }

func (c *logging) Read(s *sched.Strand, addr uint64)  { c.addrs = append(c.addrs, addr) }
func (c *logging) Write(s *sched.Strand, addr uint64) { c.addrs = append(c.addrs, addr|1<<63) }

// TestRangesReachTheChecker: a range goes to a RangeChecker in one call
// and to any other checker — a wrapper included — as one Read or Write
// per address, in address order; counted, it is its n accesses either
// way, and an empty or negative range is nothing at all.
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
	c, log := &buffering{}, &logging{}
	for _, tc := range []struct {
		name          string
		checker       sched.AccessChecker
		calls, ranges int64
	}{
		{"range checker", c, 0, 2},
		{"wrapped", wrapped{c, c}, 310, 0},
		{"no ranges", log, 0, 0},
		{"no checker", nil, 0, 0},
	} {
		c.calls.Store(0)
		c.ranges.Store(0)
		counts, err := sched.Run(sched.Options{Serial: true, Checker: tc.checker, Stats: obsv.NewRegistry()}, main)
		if err != nil {
			t.Fatal(err)
		}
		if c.calls.Load() != tc.calls || c.ranges.Load() != tc.ranges {
			t.Errorf("%s: %d single calls and %d range calls, want %d and %d",
				tc.name, c.calls.Load(), c.ranges.Load(), tc.calls, tc.ranges)
		}
		if counts.Reads != 300 || counts.Writes != 10 {
			t.Errorf("%s: counted %d reads and %d writes, want 300 and 10", tc.name, counts.Reads, counts.Writes)
		}
	}
	if !slices.Equal(log.addrs, want) {
		t.Errorf("the checker without ranges got %d accesses, want the %d of the ranges in address order", len(log.addrs), len(want))
	}
}

// TestNewStrandStartsWithNoBuffer: a strand's buffer says what that strand
// did, so the strands a spawn, a sync, a create and a get begin — child,
// continuation, join strand, future body, get strand — must start with
// none, and their first access to an address the strand before them
// covered must reach the checker.
func TestNewStrandStartsWithNoBuffer(t *testing.T) {
	for _, serial := range []bool{true, false} {
		c := &buffering{skip: true}
		// begins checks the strand tk is on now: no buffer yet, and a write
		// of 7 — which every strand before it has made — is not skipped.
		begins := func(tk *sched.Task, what string) {
			if tk.Strand().Buf != nil {
				t.Errorf("serial=%v: the %s began with a buffer", serial, what)
			}
			before := c.calls.Load()
			tk.Write(7)
			// On the parallel engine other workers call the checker too.
			if serial && c.calls.Load() != before+1 {
				t.Errorf("serial=%v: the %s's first write of 7 did not reach the checker", serial, what)
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
	}
}
