package trace

import (
	"fmt"

	"sforder/internal/sched"
)

// idSlack is how far a strand or future id may run ahead of what the events
// applied so far can have introduced (three strands and one future each).
// A recording worker draws a branch's ids before its event reaches the
// file: a spawn's or create's at most three ids early, since those events
// are written at once, and a get's one strand while the get waits in its
// lane's buffer — but that get's future has its create and put in the file
// already, and their six ids of budget cover the create's three and the
// get's one. So genuine ids lead file order by at most three per recording
// worker; anything further out is corruption.
const idSlack = 1 << 16

// The life cycle of a strand, in file order. A strand is introduced by the
// event that branches to it; a region's join placeholder stays pending
// until its sync, and every other strand is live at once. A live strand
// ends exactly once: by a spawn, create or get, as a sync's k, or by its
// return or put.
const (
	unseen uint8 = iota
	pending
	live
	ended
	returned // ended by its return, so its region's sync may join it
	joined
)

// strand is a strand as a Rebuild knows it: the sched.Strand the tracer
// sees, its life-cycle state, and its place in the fork-join structure.
type strand struct {
	sched.Strand
	state uint8
	kids  int     // a placeholder's region: children spawned in it
	ret   *strand // the region the strand's function instance returns into; nil in a future body, which puts
	open  *strand // the strand's open sync region, by its placeholder
}

func (s *strand) sched() *sched.Strand {
	if s == nil {
		return nil
	}
	return &s.Strand
}

// Rebuild applies a capture's records to a sched.Tracer in file order and
// holds them to what the engine can have recorded (DESIGN.md §4): the
// strand life cycle, regions, sinks, puts and gets as Apply checks them,
// blocks naming live strands, and at the end a root and no id left out.
// Every rebuild — PathIndex, replay's barriered and streamed rebuilds,
// the capture oracle — goes through one.
//
// It holds the strands and futures introduced, dense by id, never sized
// from a total a capture declares: an id is admitted only within idSlack
// of what the events applied so far account for.
type Rebuild struct {
	// Reach, when set, answers the get's handle check: the getter must
	// follow the create's continuation. Without it the check is left to
	// the caller (the capture oracle validates the whole dag).
	Reach interface {
		PrecedesUncounted(u, v *sched.Strand) bool
	}

	strands []*strand
	futs    []*sched.FutureTask
	conts   []*sched.Strand // per future, its create's continuation until the get
	events  int             // structure events applied
	// Strand records not yet handed out, allocated a chunk at a time: one
	// allocation per strand is most of an event pass.
	free []strand
}

const allocChunk = 256

// corrupt is what a Rebuild throws at a violation. Only the methods that
// defer caught, which turns it back into an error, call the throwing ones.
type corrupt string

func throw(format string, args ...any) { panic(corrupt(fmt.Sprintf(format, args...))) }

// caught turns a corrupt thrown below it into *err, naming the event the
// rebuild was at; any other panic goes on.
func (rb *Rebuild) caught(err *error) {
	switch p := recover().(type) {
	case nil:
	case corrupt:
		*err = fmt.Errorf("trace: rebuild: event %d: %s (corrupt capture)", rb.events, string(p))
	default:
		panic(p)
	}
}

func (rb *Rebuild) get(id uint64) *strand {
	if id >= uint64(len(rb.strands)) || rb.strands[id] == nil {
		throw("strand %d referenced before introduction", id)
	}
	return rb.strands[id]
}

// Strand returns the introduced strand id, in any state. It panics on an
// id no event introduced.
func (rb *Rebuild) Strand(id uint64) *sched.Strand { return &rb.strands[id].Strand }

// end ends the live strand id in state to.
func (rb *Rebuild) end(id uint64, to uint8) *strand {
	s := rb.get(id)
	if s.state != live {
		throw("strand %d acts in state %d, not live", id, s.state)
	}
	s.state = to
	return s
}

func (rb *Rebuild) intro(id uint64, f *sched.FutureTask, state uint8, ret, open *strand) *strand {
	if id > 3*uint64(rb.events)+idSlack {
		throw("strand %d out of range", id)
	}
	for uint64(len(rb.strands)) <= id {
		rb.strands = append(rb.strands, nil)
	}
	if rb.strands[id] != nil {
		throw("strand %d introduced twice", id)
	}
	if len(rb.free) == 0 {
		rb.free = make([]strand, allocChunk)
	}
	s := &rb.free[0]
	rb.free = rb.free[1:]
	*s = strand{Strand: sched.Strand{ID: id, Fut: f}, state: state, ret: ret, open: open}
	rb.strands[id] = s
	return s
}

func (rb *Rebuild) needFut(id int) *sched.FutureTask {
	if id < 0 || id >= len(rb.futs) || rb.futs[id] == nil {
		throw("future %d referenced before creation", id)
	}
	return rb.futs[id]
}

func (rb *Rebuild) introFut(id int, parent *sched.FutureTask) *sched.FutureTask {
	if id < 0 || id > rb.events+idSlack {
		throw("future %d out of range", id)
	}
	for len(rb.futs) <= id {
		rb.futs = append(rb.futs, nil)
		rb.conts = append(rb.conts, nil)
	}
	if rb.futs[id] != nil {
		throw("future %d created twice", id)
	}
	rb.futs[id] = &sched.FutureTask{ID: id, Parent: parent}
	return rb.futs[id]
}

// Block returns the strand an access block names, which must be live at
// the block's place in the file.
func (rb *Rebuild) Block(b *AccessBlock) (s *sched.Strand, err error) {
	defer rb.caught(&err)
	if ss := rb.get(b.Strand); ss.state == live {
		return &ss.Strand, nil
	}
	throw("access block of strand %d, which is not live", b.Strand)
	return nil, nil
}

// Apply checks one structure event and feeds it to r. A branch with a
// placeholder opens a region and one without must be in one; a sync joins
// exactly its region's children, each returned; a put comes from the last
// strand of the future's own body, once; a get follows the put, once per
// future, by a strand after the create's continuation.
func (rb *Rebuild) Apply(r sched.Tracer, ev *Event) (err error) {
	defer rb.caught(&err)
	switch ev.Op {
	case OpRoot:
		if rb.events != 0 {
			throw("misplaced root")
		}
		r.OnRoot(rb.intro(ev.U, rb.introFut(0, nil), live, nil, nil).sched())
	case OpSpawn, OpCreate:
		u := rb.end(ev.U, ended)
		region, ph := u.open, (*strand)(nil)
		if ev.Placeholder > 0 {
			// The first branch of a region places its join strand.
			if region != nil {
				throw("strand %d opens a region inside region %d", ev.U, region.ID)
			}
			ph = rb.intro(ev.Placeholder-1, u.Fut, pending, u.ret, nil)
			region = ph
		} else if region == nil {
			throw("strand %d branches outside a region", ev.U)
		}
		var first *strand
		if ev.Op == OpCreate {
			if ev.FutParent != u.Fut.ID {
				throw("future %d created in future %d, named %d", ev.Fut, u.Fut.ID, ev.FutParent)
			}
			first = rb.intro(ev.A, rb.introFut(ev.Fut, u.Fut), live, nil, nil)
		} else {
			first = rb.intro(ev.A, u.Fut, live, region, nil)
			region.kids++
		}
		cont := rb.intro(ev.B, u.Fut, live, u.ret, region)
		if ev.Op == OpCreate {
			rb.conts[ev.Fut] = cont.sched()
			r.OnCreate(u.sched(), first.sched(), cont.sched(), ph.sched(), first.Fut)
		} else {
			r.OnSpawn(u.sched(), first.sched(), cont.sched(), ph.sched())
		}
	case OpSync:
		k, s := rb.end(ev.U, ended), rb.get(ev.A)
		if s.state != pending || k.open != s {
			throw("strand %d syncs into %d, not its open region", ev.U, ev.A)
		}
		if len(ev.Sinks) != s.kids {
			throw("sync into %d joins %d sinks of %d children", ev.A, len(ev.Sinks), s.kids)
		}
		sinks := make([]*sched.Strand, len(ev.Sinks))
		for j, id := range ev.Sinks {
			c := rb.get(id)
			if c.state != returned || c.ret != s {
				throw("sync into %d joins strand %d, not a returned child of its region", ev.A, id)
			}
			c.state, sinks[j] = joined, c.sched()
		}
		s.state = live
		r.OnSync(k.sched(), s.sched(), sinks)
	case OpReturn:
		u := rb.end(ev.U, returned)
		if u.ret == nil || u.open != nil {
			throw("strand %d returns from no spawned child or with a region open", ev.U)
		}
		r.OnReturn(u.sched())
	case OpPut:
		u, f := rb.end(ev.U, ended), rb.needFut(ev.Fut)
		if u.Fut != f || u.ret != nil || u.open != nil || f.Last() != nil {
			throw("strand %d puts future %d, not as its body's last strand", ev.U, ev.Fut)
		}
		f.SetLast(u.sched())
		r.OnPut(u.sched(), f)
	case OpGet:
		u, f := rb.end(ev.U, ended), rb.needFut(ev.Fut)
		cont := rb.conts[ev.Fut]
		switch {
		case f.Last() == nil:
			throw("get of future %d before its put", ev.Fut)
		case cont == nil:
			throw("future %d gotten twice, or the root", ev.Fut)
		case rb.Reach != nil && cont != u.sched() && !rb.Reach.PrecedesUncounted(cont, u.sched()):
			throw("strand %d gets future %d, not after its create's continuation", ev.U, ev.Fut)
		}
		rb.conts[ev.Fut] = nil
		r.OnGet(u.sched(), rb.intro(ev.A, u.Fut, live, u.ret, u.open).sched(), f)
	default:
		throw("unexpected op %v", ev.Op)
	}
	rb.events++
	return nil
}

// Done checks what only the whole capture shows: a root, and no strand or
// future id left out — the engine announces every id it draws.
func (rb *Rebuild) Done() error {
	if rb.events == 0 {
		return fmt.Errorf("trace: rebuild: capture has no root (corrupt capture)")
	}
	for id, s := range rb.strands {
		if s == nil {
			return fmt.Errorf("trace: rebuild: strand %d never introduced (corrupt capture)", id)
		}
	}
	for id, f := range rb.futs {
		if f == nil {
			return fmt.Errorf("trace: rebuild: future %d never created (corrupt capture)", id)
		}
	}
	return nil
}

// Run applies c to r: its structure events in file order, each access
// block checked at its place in the file and handed to visit, if non-nil,
// with its strand; then Done.
func (rb *Rebuild) Run(c *Capture, r sched.Tracer, visit func(*sched.Strand, *AccessBlock)) error {
	if len(c.BlockAt) != len(c.Blocks) {
		return fmt.Errorf("trace: rebuild: %d block positions for %d blocks", len(c.BlockAt), len(c.Blocks))
	}
	b := 0
	for i := 0; i <= len(c.Events); i++ {
		for ; b < len(c.Blocks) && c.BlockAt[b] <= i; b++ {
			s, err := rb.Block(&c.Blocks[b])
			if err != nil {
				return err
			}
			if visit != nil {
				visit(s, &c.Blocks[b])
			}
		}
		if i < len(c.Events) {
			if err := rb.Apply(r, &c.Events[i]); err != nil {
				return err
			}
		}
	}
	if b < len(c.Blocks) {
		return fmt.Errorf("trace: rebuild: block %d placed past the last event", b)
	}
	return rb.Done()
}
