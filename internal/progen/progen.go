// Package progen generates random structured-future programs for the
// scheduler — the fuzzing substrate behind the detector correctness
// tests and the racehunt example.
//
// A generated Program is a static tree of operations (spawn, sync,
// create, get, read, write) built once from a seed; interpreting it is
// deterministic, so serial and parallel executions of the same Program
// produce the same computation dag (up to strand numbering) and the same
// set of races. Handle transfer during generation follows the
// structured-future rules by construction: a handle is gotten at most
// once, and only at a program point sequentially after its create.
package progen

import (
	"math/rand"

	"sforder/internal/sched"
)

type opKind uint8

const (
	opSpawn opKind = iota
	opSync
	opCreate
	opGet
	opRead
	opWrite
)

type op struct {
	kind opKind
	body *block // opSpawn, opCreate
	slot int    // opCreate, opGet: index into the handle table
	addr uint64 // opRead, opWrite
	// With Config.MaxRun: the access covers n more addresses, step apart,
	// after addr, and an opRead with update set writes each one after
	// reading it. The zero values are the single access.
	n, step uint64
	update  bool
}

type block struct {
	ops []op
}

// Program is a reproducible random structured-future program.
type Program struct {
	root  *block
	slots int
	cfg   Config
}

// Config bounds the generated program shape.
type Config struct {
	Seed     int64
	MaxDepth int // nesting depth of spawned/created bodies (default 4)
	MaxOps   int // ops per block (default 8)
	Addrs    int // size of the shadow address space (default 16)
	// GetProb, per mille, biases how often an available handle is
	// touched (default 700).
	GetProb int
	// MaxRun above 1 turns every memory access into a run: up to MaxRun
	// addresses, consecutive or (one run in four) three apart, read,
	// written, or (one read run in four) read and then written one by one
	// — the row and tile shapes of the paper's kernels, which overlap,
	// nest and straddle shadow pages when Addrs is a few pages. At 0 or 1
	// an access is one address and programs are what they were before the
	// field existed.
	MaxRun int
}

func (c *Config) fill() {
	if c.MaxDepth == 0 {
		c.MaxDepth = 4
	}
	if c.MaxOps == 0 {
		c.MaxOps = 8
	}
	if c.Addrs == 0 {
		c.Addrs = 16
	}
	if c.GetProb == 0 {
		c.GetProb = 700
	}
}

// New generates a program from cfg.
func New(cfg Config) *Program {
	cfg.fill()
	p := &Program{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p.root = p.genBlock(rng, cfg.MaxDepth, nil)
	return p
}

// genBlock generates one function-instance body. avail is the set of
// handle slots this body may still touch; ownership of a slot moves into
// a child body when transferred (single touch by construction).
func (p *Program) genBlock(rng *rand.Rand, depth int, avail []int) *block {
	b := &block{}
	nops := 1 + rng.Intn(p.cfg.MaxOps)
	for i := 0; i < nops; i++ {
		switch choice := rng.Intn(100); {
		case choice < 30: // memory access
			addr := uint64(rng.Intn(p.cfg.Addrs))
			if rng.Intn(2) == 0 {
				b.ops = append(b.ops, p.run(rng, op{kind: opRead, addr: addr}))
			} else {
				b.ops = append(b.ops, p.run(rng, op{kind: opWrite, addr: addr}))
			}
		case choice < 50 && depth > 0: // spawn
			var transfer []int
			avail, transfer = split(rng, avail)
			b.ops = append(b.ops, op{kind: opSpawn, body: p.genBlock(rng, depth-1, transfer)})
		case choice < 60: // sync
			b.ops = append(b.ops, op{kind: opSync})
		case choice < 80 && depth > 0: // create
			slot := p.slots
			p.slots++
			var transfer []int
			avail, transfer = split(rng, avail)
			b.ops = append(b.ops, op{kind: opCreate, slot: slot, body: p.genBlock(rng, depth-1, transfer)})
			avail = append(avail, slot)
		default: // get one available handle
			if len(avail) == 0 || rng.Intn(1000) >= p.cfg.GetProb {
				b.ops = append(b.ops, p.run(rng, op{kind: opRead, addr: uint64(rng.Intn(p.cfg.Addrs))}))
				break
			}
			j := rng.Intn(len(avail))
			slot := avail[j]
			avail = append(avail[:j], avail[j+1:]...)
			b.ops = append(b.ops, op{kind: opGet, slot: slot})
		}
	}
	return b
}

// run gives access o its run shape under Config.MaxRun, and draws nothing
// from rng without it.
func (p *Program) run(rng *rand.Rand, o op) op {
	if p.cfg.MaxRun > 1 {
		o.n, o.step = uint64(rng.Intn(p.cfg.MaxRun)), 1
		if rng.Intn(4) == 0 {
			o.step = 3
		}
		o.n = min(o.n, (uint64(p.cfg.Addrs)-1-o.addr)/o.step) // stay inside the address space
		o.update = o.kind == opRead && rng.Intn(4) == 0
	}
	return o
}

// isRange reports whether MainRanges makes access o as one ReadRange or
// WriteRange call: a run of consecutive addresses only read or only
// written.
func (o op) isRange() bool { return o.step == 1 && !o.update }

// split randomly moves a subset of avail into a child's transfer set.
func split(rng *rand.Rand, avail []int) (keep, transfer []int) {
	for _, s := range avail {
		if rng.Intn(3) == 0 {
			transfer = append(transfer, s)
		} else {
			keep = append(keep, s)
		}
	}
	return keep, transfer
}

// Slots returns how many futures the program creates.
func (p *Program) Slots() int { return p.slots }

// Main returns the program's entry point for sched.Run. The returned
// function may be executed many times; each execution allocates its own
// handle table.
func (p *Program) Main() func(*sched.Task) { return p.main(false) }

// MainRanges is Main with every run of consecutive addresses that is only
// read or only written (Config.MaxRun) made as one Task.ReadRange or
// WriteRange call. A range is its single accesses, so the two spellings
// make the same accesses in the same order and must get the same verdict.
func (p *Program) MainRanges() func(*sched.Task) { return p.main(true) }

func (p *Program) main(ranges bool) func(*sched.Task) {
	return func(t *sched.Task) {
		handles := make([]*sched.Future, p.slots)
		runBlock(t, p.root, handles, ranges)
	}
}

// runBlock interprets one body. The handle table is shared by pointer:
// slot s is written by the creating strand strictly before any getter's
// branch point, so the accesses are ordered by the dag itself.
func runBlock(t *sched.Task, b *block, handles []*sched.Future, ranges bool) {
	for _, o := range b.ops {
		switch o.kind {
		case opRead, opWrite:
			if ranges && o.isRange() {
				if o.kind == opWrite {
					t.WriteRange(o.addr, int(o.n)+1)
				} else {
					t.ReadRange(o.addr, int(o.n)+1)
				}
				continue
			}
			for k := uint64(0); k <= o.n; k++ {
				a := o.addr + k*o.step
				if o.kind == opWrite {
					t.Write(a)
					continue
				}
				t.Read(a)
				if o.update {
					t.Write(a)
				}
			}
		case opSync:
			t.Sync()
		case opSpawn:
			body := o.body
			t.Spawn(func(c *sched.Task) { runBlock(c, body, handles, ranges) })
		case opCreate:
			body := o.body
			handles[o.slot] = t.Create(func(c *sched.Task) any {
				runBlock(c, body, handles, ranges)
				return nil
			})
		case opGet:
			t.Get(handles[o.slot])
		}
	}
}
