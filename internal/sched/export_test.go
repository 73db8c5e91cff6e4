package sched

// Test-only exports for whitebox tests of the scheduler internals.

// NewTestWorkerPair returns two workers of a throwaway engine, for
// exercising push/pop/steal mechanics directly.
func NewTestWorkerPair() (*worker, *worker) {
	e := &engine{abortCh: make(chan struct{})}
	w1 := &worker{eng: e, id: 0, lastVictim: -1, parkSig: make(chan struct{}, 1)}
	w2 := &worker{eng: e, id: 1, lastVictim: -1, parkSig: make(chan struct{}, 1)}
	w1.cl.init()
	w2.cl.init()
	e.workers = []*worker{w1, w2}
	return w1, w2
}

// NewTestJob returns a claimable no-op job.
func NewTestJob() *job { return &job{} }

// PushJob exposes worker.push.
func (w *worker) PushJob(j *job) { w.push(j) }

// PopJob pops from the worker's own deque.
func (w *worker) PopJob() *job { return w.cl.pop() }

// StealJobFrom steals from v's deque.
func (w *worker) StealJobFrom(v *worker) *job { return v.cl.steal() }

// Take exposes job.take.
func (j *job) Take() bool { return j.take() }

// DequeLen reports the current deque length.
func (w *worker) DequeLen() int { return int(w.cl.size()) }

// DequeBytes is the deque's backing-store footprint.
func (w *worker) DequeBytes() int64 { return w.cl.memBytes() }
