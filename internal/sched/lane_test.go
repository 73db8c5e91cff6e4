package sched_test

import (
	"sync"
	"testing"

	"sforder/internal/sched"
)

// laneRecorder implements sched.LaneTracer and records which entry
// points the engine used and which lanes it saw.
type laneRecorder struct {
	mu         sync.Mutex
	lanes      int
	laneEvents map[int]int // lane → events routed through *Lane methods
	plainSpawn int         // events that arrived through the plain methods
	stampMiss  int         // lane events whose running strand carried another lane
}

func newLaneRecorder() *laneRecorder {
	return &laneRecorder{laneEvents: map[int]int{}}
}

func (r *laneRecorder) SetLanes(n int) { r.lanes = n }

// lane counts an event on lane l whose running strand u ends there and
// whose next strand next continues there.
func (r *laneRecorder) lane(l int, u, next *sched.Strand) {
	r.mu.Lock()
	r.laneEvents[l]++
	if u.Lane() != l || next.Lane() != l {
		r.stampMiss++
	}
	r.mu.Unlock()
}

func (r *laneRecorder) OnSpawnLane(l int, u, c, k, p *sched.Strand) { r.lane(l, u, k) }
func (r *laneRecorder) OnCreateLane(l int, u, f, k, p *sched.Strand, ft *sched.FutureTask) {
	r.lane(l, u, k)
}
func (r *laneRecorder) OnSyncLane(l int, k, s *sched.Strand, sinks []*sched.Strand) { r.lane(l, k, s) }
func (r *laneRecorder) OnGetLane(l int, u, g *sched.Strand, f *sched.FutureTask)    { r.lane(l, u, g) }

func (r *laneRecorder) OnRoot(*sched.Strand) {}
func (r *laneRecorder) OnSpawn(u, c, k, p *sched.Strand) {
	r.mu.Lock()
	r.plainSpawn++
	r.mu.Unlock()
}
func (r *laneRecorder) OnCreate(u, f, k, p *sched.Strand, ft *sched.FutureTask) {}
func (r *laneRecorder) OnSync(k, s *sched.Strand, sinks []*sched.Strand)        {}
func (r *laneRecorder) OnReturn(*sched.Strand)                                  {}
func (r *laneRecorder) OnPut(*sched.Strand, *sched.FutureTask)                  {}
func (r *laneRecorder) OnGet(u, g *sched.Strand, f *sched.FutureTask)           {}

func laneWorkload(t *sched.Task) {
	for i := 0; i < 8; i++ {
		t.Spawn(func(t *sched.Task) {
			f := t.Create(func(*sched.Task) any { return 1 })
			t.Get(f)
		})
	}
	t.Sync()
}

// TestLaneTracerRouting: a Tracer implementing LaneTracer gets SetLanes
// before the first event and all spawn/create/sync/get events through
// the *Lane variants, with lanes inside [0, workers).
func TestLaneTracerRouting(t *testing.T) {
	rec := newLaneRecorder()
	if _, err := sched.Run(sched.Options{Workers: 3, Tracer: rec}, laneWorkload); err != nil {
		t.Fatal(err)
	}
	if rec.lanes != 3 {
		t.Errorf("SetLanes got %d, want 3", rec.lanes)
	}
	if rec.plainSpawn != 0 {
		t.Errorf("%d spawns leaked through the plain method", rec.plainSpawn)
	}
	if rec.stampMiss != 0 {
		t.Errorf("%d events on a lane other than their strands' Lane()", rec.stampMiss)
	}
	total := 0
	for lane, n := range rec.laneEvents {
		if lane < 0 || lane >= 3 {
			t.Errorf("event on out-of-range lane %d", lane)
		}
		total += n
	}
	// 8 spawns + 8 creates + 8 gets + syncs (implicit ones included).
	if total < 24 {
		t.Errorf("only %d lane events recorded", total)
	}
}

// TestLaneTracerSerial: the serial executor is a single lane, lane 0.
func TestLaneTracerSerial(t *testing.T) {
	rec := newLaneRecorder()
	if _, err := sched.Run(sched.Options{Serial: true, Tracer: rec}, laneWorkload); err != nil {
		t.Fatal(err)
	}
	if rec.lanes != 1 {
		t.Errorf("SetLanes got %d, want 1", rec.lanes)
	}
	for lane := range rec.laneEvents {
		if lane != 0 {
			t.Errorf("serial run used lane %d", lane)
		}
	}
}

// TestLaneTracerInsideMultiTracerFallsBack: a LaneTracer wrapped in a
// MultiTracer is not detected; events arrive through the plain methods.
func TestLaneTracerInsideMultiTracerFallsBack(t *testing.T) {
	rec := newLaneRecorder()
	if _, err := sched.Run(sched.Options{Serial: true, Tracer: sched.MultiTracer{rec}}, laneWorkload); err != nil {
		t.Fatal(err)
	}
	if len(rec.laneEvents) != 0 {
		t.Errorf("lane methods called through MultiTracer: %v", rec.laneEvents)
	}
	if rec.plainSpawn == 0 {
		t.Error("no plain spawn events recorded")
	}
}

// TestSetLanesReachesAux: an Options.Aux tracer with SetLanes learns the
// lane count, inside a MultiTracer too, while its events keep arriving
// through the plain methods.
func TestSetLanesReachesAux(t *testing.T) {
	direct, inner := newLaneRecorder(), newLaneRecorder()
	for _, aux := range []sched.Tracer{direct, sched.MultiTracer{inner}} {
		if _, err := sched.Run(sched.Options{Workers: 3, Aux: aux}, laneWorkload); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range []*laneRecorder{direct, inner} {
		if rec.lanes != 3 {
			t.Errorf("SetLanes got %d, want 3", rec.lanes)
		}
		if len(rec.laneEvents) != 0 || rec.plainSpawn == 0 {
			t.Errorf("aux events: %v through lanes, %d plain spawns", rec.laneEvents, rec.plainSpawn)
		}
	}
}
