package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

// dequeVariants runs a deque scenario as the "chaselev" subtest. The
// mutex deque it once also covered is gone (EXPERIMENTS ABL9); the
// subtest name stays so the scenarios keep their test IDs.
func dequeVariants(t *testing.T, f func(t *testing.T, newPair func() (*worker, *worker))) {
	t.Run("chaselev", func(t *testing.T) { f(t, NewTestWorkerPair) })
}

func TestDequeLIFOPop(t *testing.T) {
	dequeVariants(t, func(t *testing.T, newPair func() (*worker, *worker)) {
		w, _ := newPair()
		j1, j2, j3 := NewTestJob(), NewTestJob(), NewTestJob()
		w.PushJob(j1)
		w.PushJob(j2)
		w.PushJob(j3)
		if got := w.PopJob(); got != j3 {
			t.Error("pop must take the newest job")
		}
		if got := w.PopJob(); got != j2 {
			t.Error("pop order wrong")
		}
		if w.DequeLen() != 1 {
			t.Errorf("DequeLen = %d", w.DequeLen())
		}
	})
}

func TestDequeFIFOSteal(t *testing.T) {
	dequeVariants(t, func(t *testing.T, newPair func() (*worker, *worker)) {
		victim, thief := newPair()
		j1, j2 := NewTestJob(), NewTestJob()
		victim.PushJob(j1)
		victim.PushJob(j2)
		if got := thief.StealJobFrom(victim); got != j1 {
			t.Error("steal must take the oldest job")
		}
		if got := victim.PopJob(); got != j2 {
			t.Error("victim keeps the newest job")
		}
	})
}

func TestPopSkipsTakenJobs(t *testing.T) {
	dequeVariants(t, func(t *testing.T, newPair func() (*worker, *worker)) {
		w, _ := newPair()
		j1, j2 := NewTestJob(), NewTestJob()
		w.PushJob(j1)
		w.PushJob(j2)
		if !j2.Take() {
			t.Fatal("take failed")
		}
		if got := w.PopJob(); got != j1 {
			t.Error("pop must discard jobs claimed elsewhere")
		}
		if w.PopJob() != nil {
			t.Error("deque should be empty")
		}
	})
}

func TestStealSkipsTakenJobs(t *testing.T) {
	dequeVariants(t, func(t *testing.T, newPair func() (*worker, *worker)) {
		victim, thief := newPair()
		j1, j2 := NewTestJob(), NewTestJob()
		victim.PushJob(j1)
		victim.PushJob(j2)
		j1.Take()
		if got := thief.StealJobFrom(victim); got != j2 {
			t.Error("steal must discard claimed jobs")
		}
		if thief.StealJobFrom(victim) != nil {
			t.Error("victim should be drained")
		}
	})
}

func TestTakeIsExclusive(t *testing.T) {
	j := NewTestJob()
	if !j.Take() {
		t.Fatal("first take must succeed")
	}
	if j.Take() {
		t.Fatal("second take must fail")
	}
}

// TestDequeGrows pushes past the initial ring capacity and checks the
// Chase–Lev deque grows (rather than overwriting live slots) and keeps
// both LIFO pop order and all elements.
func TestDequeGrows(t *testing.T) {
	w, _ := NewTestWorkerPair()
	const n = dequeInitSlots * 4
	jobs := make([]*job, n)
	for i := range jobs {
		jobs[i] = NewTestJob()
		w.PushJob(jobs[i])
	}
	if got := w.DequeBytes(); got < dequeInitSlots*2*8 {
		t.Errorf("deque did not grow: %d bytes", got)
	}
	for i := n - 1; i >= 0; i-- {
		if got := w.PopJob(); got != jobs[i] {
			t.Fatalf("pop %d returned wrong job", i)
		}
	}
	if w.PopJob() != nil {
		t.Error("deque should be empty")
	}
}

// TestConcurrentStealers hammers one victim deque from several thieves
// and checks every job is obtained exactly once. A nil steal is not
// proof of emptiness under Chase–Lev (a lost CAS also returns nil), so
// thieves retry until the global count accounts for every job.
func TestConcurrentStealers(t *testing.T) {
	dequeVariants(t, func(t *testing.T, newPair func() (*worker, *worker)) {
		victim, _ := newPair()
		const n = 4096
		jobs := make([]*job, n)
		for i := range jobs {
			jobs[i] = NewTestJob()
			victim.PushJob(jobs[i])
		}
		var total atomic.Int64
		var mu sync.Mutex
		got := map[*job]int{}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				thief, _ := newPair()
				for total.Load() < n {
					j := thief.StealJobFrom(victim)
					if j == nil {
						continue
					}
					if j.Take() {
						total.Add(1)
						mu.Lock()
						got[j]++
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		if len(got) != n {
			t.Fatalf("obtained %d of %d jobs", len(got), n)
		}
		for j, c := range got {
			if c != 1 {
				t.Fatalf("job %p obtained %d times", j, c)
			}
		}
	})
}

// TestPopStealRace runs the owner popping against thieves stealing from
// the same deque, with the owner also re-pushing in bursts, and checks
// exactly-once delivery of every job — the contended final-element CAS
// path in particular.
func TestPopStealRace(t *testing.T) {
	dequeVariants(t, func(t *testing.T, newPair func() (*worker, *worker)) {
		owner, _ := newPair()
		const n = 8192
		var total atomic.Int64
		var mu sync.Mutex
		got := map[*job]int{}
		obtain := func(j *job) {
			if j != nil && j.Take() {
				total.Add(1)
				mu.Lock()
				got[j]++
				mu.Unlock()
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				thief, _ := newPair()
				for total.Load() < n {
					obtain(thief.StealJobFrom(owner))
				}
			}()
		}
		// Owner: push in small bursts, pop between them, so the deque
		// hovers near empty and the pop-vs-steal race on the final
		// element is exercised constantly.
		for i := 0; i < n; i += 4 {
			for k := 0; k < 4; k++ {
				owner.PushJob(NewTestJob())
			}
			obtain(owner.PopJob())
			obtain(owner.PopJob())
		}
		for total.Load() < n {
			obtain(owner.PopJob())
		}
		wg.Wait()
		if len(got) != n {
			t.Fatalf("obtained %d of %d jobs", len(got), n)
		}
		for j, c := range got {
			if c != 1 {
				t.Fatalf("job %p obtained %d times", j, c)
			}
		}
	})
}
