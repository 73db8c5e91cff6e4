package detect

import "sforder/internal/sched"

// Stub reachabilities for the in-package tests and benchmarks, which
// drive a History without an engine.

// serialReach orders everything: every strand precedes every other, so
// nothing driven through it pays for a race report.
type serialReach struct{}

func (serialReach) Precedes(u, v *sched.Strand) bool { return true }

// parallelReach orders nothing: every two distinct strands are parallel.
type parallelReach struct{}

func (parallelReach) Precedes(u, v *sched.Strand) bool { return u == v }

var testFuture = &sched.FutureTask{ID: 0}

func newStrand(id uint64) *sched.Strand { return &sched.Strand{ID: id, Fut: testFuture} }
