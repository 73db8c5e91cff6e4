// Package oracle is the ground-truth race detector used only in tests:
// it logs every instrumented access during execution and afterwards
// checks all conflicting pairs against the exhaustive transitive closure
// of the recorded dag. It is quadratic per location and keeps the whole
// dag — everything the real detectors exist to avoid — but it is
// obviously correct, which is the point.
package oracle

import (
	"sort"
	"sync"

	"sforder/internal/dag"
	"sforder/internal/sched"
)

type access struct {
	s     *sched.Strand
	write bool
}

// Logger implements sched.AccessChecker by recording accesses per
// address.
type Logger struct {
	mu  sync.Mutex
	byA map[uint64][]access
}

// NewLogger returns an empty access logger.
func NewLogger() *Logger { return &Logger{byA: map[uint64][]access{}} }

// Read implements sched.AccessChecker.
func (o *Logger) Read(s *sched.Strand, addr uint64) { o.log(s, addr, false) }

// Write implements sched.AccessChecker.
func (o *Logger) Write(s *sched.Strand, addr uint64) { o.log(s, addr, true) }

func (o *Logger) log(s *sched.Strand, addr uint64, write bool) {
	o.mu.Lock()
	o.byA[addr] = append(o.byA[addr], access{s, write})
	o.mu.Unlock()
}

// RacyAddrs returns the sorted addresses on which a determinacy race
// exists: two accesses by logically parallel strands, at least one a
// write. rec must be the recorder that observed the same execution.
func (o *Logger) RacyAddrs(rec *dag.Recorder) []uint64 {
	cl := dag.NewClosure(rec.G)
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []uint64
	for addr, accs := range o.byA {
		if o.racy(cl, rec, accs) {
			out = append(out, addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (o *Logger) racy(cl *dag.Closure, rec *dag.Recorder, accs []access) bool {
	for i, a := range accs {
		for _, b := range accs[:i] {
			if !a.write && !b.write {
				continue
			}
			if a.s == b.s {
				continue
			}
			na, nb := rec.NodeOf(a.s), rec.NodeOf(b.s)
			if !cl.Reachable(na, nb) && !cl.Reachable(nb, na) {
				return true
			}
		}
	}
	return false
}

// Accesses returns the total number of logged accesses.
func (o *Logger) Accesses() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, a := range o.byA {
		n += len(a)
	}
	return n
}

// Counts returns how many reads and writes were logged, and how many of
// them were repeats — accesses an earlier one of the same strand subsumes:
// a read after the strand's read or write of the address, a write after
// its write. A detector's strand buffer absorbs exactly the repeats.
func (o *Logger) Counts() (reads, writes, repeats int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, accs := range o.byA {
		wrote := map[*sched.Strand]bool{} // present: the strand touched the address
		for _, a := range accs {
			if a.write {
				writes++
			} else {
				reads++
			}
			w, touched := wrote[a.s]
			if w || touched && !a.write {
				repeats++
			}
			wrote[a.s] = w || a.write
		}
	}
	return reads, writes, repeats
}
