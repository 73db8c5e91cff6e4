package core

import (
	"fmt"
	"sync/atomic"

	"sforder/internal/depa"
	"sforder/internal/obsv"
	"sforder/internal/om"
)

// Substrate selects the reachability label substrate behind Reach.
type Substrate int

const (
	// SubstrateOM is the paper's English/Hebrew order-maintenance list
	// pair (§3.2): O(1) amortized labels, but splits and renumberings
	// take a per-list maintenance lock.
	SubstrateOM Substrate = iota
	// SubstrateDePa uses immutable DePa-style fork-path labels
	// (internal/depa) stored as prefix-sharing cords: no relabeling, no
	// maintenance lock, exhaustion structurally impossible; label memory
	// is O(strands) and comparisons skip the shared prefix by pointer
	// equality, examining O(1) words at any depth.
	SubstrateDePa
	// SubstrateHybrid is DePa with a depth-adaptive twist (ABL11):
	// strands shallower than Config.HybridDepth also carry a packed
	// flat copy of their label, and queries where both sides have one
	// compare the flats — no pointer chase, the fastest path at the
	// depths where the EXPERIMENTS ABL10 crossover showed flat labels
	// winning. Deep strands fall back to the cord compare.
	SubstrateHybrid
)

// String returns the -reach flag spelling of the substrate.
func (s Substrate) String() string {
	switch s {
	case SubstrateDePa:
		return "depa"
	case SubstrateHybrid:
		return "hybrid"
	}
	return "om"
}

// ParseSubstrate parses a -reach flag value ("om", "depa", or "hybrid").
func ParseSubstrate(name string) (Substrate, error) {
	switch name {
	case "om", "":
		return SubstrateOM, nil
	case "depa":
		return SubstrateDePa, nil
	case "hybrid":
		return SubstrateHybrid, nil
	}
	return SubstrateOM, fmt.Errorf("unknown reachability substrate %q (want om, depa, or hybrid)", name)
}

// DefaultHybridDepth is the flat/cord switchover depth when
// Config.HybridDepth is unset. The EXPERIMENTS ABL10 crossover
// had flat labels beating the OM pair up to roughly 25 fork levels and
// losing past ~1000; 64 keeps every label that still fits a word or
// two on the chase-free flat path while bounding the redundant copy a
// shallow strand carries to two words.
const DefaultHybridDepth = 64

// Reachability is the substrate interface: the part of SF-Order that
// maintains the two PSP(D) total orders and answers order queries. The
// futures layer above it (cp/gp bitmaps, Algorithm 1) is substrate-
// independent and stays in Reach. Methods are unexported — the two
// implementations, the OM pair and the DePa labeler, live in this
// package because they allocate from the lane arenas; the placement
// methods write the substrate's position fields of the (pre-zeroed)
// node records they are handed.
type Reachability interface {
	// placeRoot positions the root strand's node: first in both orders.
	placeRoot(a *laneAlloc, rn *node)
	// placeBranch positions a spawn/create: immediately after un, the
	// child cn then the continuation kn in English order, kn then cn in
	// Hebrew order, with the eager sync placeholder pn (may be nil)
	// after both in both orders.
	placeBranch(a *laneAlloc, un, cn, kn, pn *node)
	// placeSerial positions gn as the immediate serial successor of un
	// in both orders (the PSP(D) placement of a get strand).
	placeSerial(a *laneAlloc, un, gn *node)
	// psp reports u ↠ v: u before v in both total orders.
	psp(u, v *node) bool
	// leftOf reports u before v in the English order only.
	leftOf(u, v *node) bool
	// memBytes is the substrate's own footprint (lists or labels),
	// excluding the node records tracked by Reach.
	memBytes() int
	// registerStats publishes the substrate's counters on reg.
	registerStats(reg *obsv.Registry)
}

// ---------------------------------------------------------------------
// OM backend: the English/Hebrew order-maintenance list pair.

// omPair is the paper's substrate. Node positions are the p0/p1 item
// pointers (node.omPos); inserts draw items from the lane's ItemArena.
type omPair struct {
	engL, hebL *om.List
}

func newOMPair() *omPair {
	return &omPair{engL: om.NewList(), hebL: om.NewList()}
}

func (p *omPair) placeRoot(a *laneAlloc, rn *node) {
	items := itemsOf(a)
	rn.setOM(p.engL.InsertFirstArena(items), p.hebL.InsertFirstArena(items))
}

// placeBranch runs the two batch inserts back to back with nothing
// between them; each keeps its run adjacent (see the om package
// comment), and no lock spans both lists — English and Hebrew
// positions are independent.
func (p *omPair) placeBranch(a *laneAlloc, un, cn, kn, pn *node) {
	n := 2
	if pn != nil {
		n = 3
	}
	items := itemsOf(a)
	var engBuf, hebBuf [3]*om.Item
	eng, heb := engBuf[:n], hebBuf[:n]
	ue, uh := un.omPos()
	p.engL.InsertAfterNArena(ue, items, eng)
	p.hebL.InsertAfterNArena(uh, items, heb)
	// English order u, child, cont[, placeholder]; Hebrew order
	// u, cont, child[, placeholder].
	cn.setOM(eng[0], heb[1])
	kn.setOM(eng[1], heb[0])
	if pn != nil {
		pn.setOM(eng[2], heb[2])
	}
}

func (p *omPair) placeSerial(a *laneAlloc, un, gn *node) {
	items := itemsOf(a)
	var engBuf, hebBuf [1]*om.Item
	ue, uh := un.omPos()
	p.engL.InsertAfterNArena(ue, items, engBuf[:])
	p.hebL.InsertAfterNArena(uh, items, hebBuf[:])
	gn.setOM(engBuf[0], hebBuf[0])
}

func (p *omPair) psp(u, v *node) bool {
	ue, uh := u.omPos()
	ve, vh := v.omPos()
	return p.engL.Precedes(ue, ve) && p.hebL.Precedes(uh, vh)
}

func (p *omPair) leftOf(u, v *node) bool {
	ue, _ := u.omPos()
	ve, _ := v.omPos()
	return p.engL.Precedes(ue, ve)
}

func (p *omPair) memBytes() int {
	return p.engL.MemBytes() + p.hebL.MemBytes()
}

// registerStats publishes both lists' maintenance counters
// (om.english.*, om.hebrew.*) and the cross-list locking aggregates
// (om.lock_acquires, om.bucket_locks, om.insert_contended). Every
// gauge reads atomics, so scraping never contends with a hot run.
func (p *omPair) registerStats(reg *obsv.Registry) {
	p.engL.RegisterStats(reg, "om.english")
	p.hebL.RegisterStats(reg, "om.hebrew")
	reg.RegisterFunc("om.lock_acquires", func() int64 {
		return p.engL.LockAcquires() + p.hebL.LockAcquires()
	})
	reg.RegisterFunc("om.bucket_locks", func() int64 {
		return p.engL.BucketLocks() + p.hebL.BucketLocks()
	})
	reg.RegisterFunc("om.insert_contended", func() int64 {
		return p.engL.InsertContended() + p.hebL.InsertContended()
	})
}

// ---------------------------------------------------------------------
// DePa backend: immutable fork-path labels.

// depaSub assigns each strand one fork-path label. Placement is pure
// appending — no list structure, no locks — and both order queries
// resolve from a single label comparison, so there is nothing to
// split, renumber, or exhaust.
//
// The label is a prefix-sharing cord (node.depaLabel, always present):
// Extend copies one word and the frozen chain is shared with the
// parent, so label memory is O(strands) and depa.Rel answers from O(1)
// words via the pointer-equality prefix skip. With hybridDepth > 0
// (SubstrateHybrid) strands whose parent is shallower than the
// threshold additionally carry a packed flat copy (node.depaFlat), and
// queries compare flats whenever both sides have one — the chase-free
// path for the shallow labels that dominate wide, flat programs. The
// cord chain is maintained for *every* strand, flat or not: the
// pointer-skip in depa.Rel is only O(1) because chunk sharing is
// structural, and that holds only if deep labels descend from their
// ancestors' actual chunk nodes, never from a rebuilt copy.
type depaSub struct {
	hybridDepth int // keep a flat while parent depth < this; 0 = never

	labels   atomic.Int64  // labels assigned
	labelMem atomic.Int64  // bytes: cord headers + frozen chunks + flats
	maxDepth atomic.Int64  // deepest fork path seen
	chunks   atomic.Int64  // chunk nodes frozen (shared words)
	cmps     atomic.Uint64 // compares (psp + leftOf)
	cmpWords atomic.Uint64 // words examined across all compares
	flatCmps atomic.Uint64 // compares served by the flat fast path
}

func newDepaSub(hybridDepth int) *depaSub {
	return &depaSub{hybridDepth: hybridDepth}
}

// account records one new strand label: the cord header, the chunk
// node if this Extend froze one (parent and child then disagree on
// FullWords — counting it here, exactly once, is what keeps shared
// words out of the per-label figure), and the flat copy if one was
// made. parent is nil for the root.
func (d *depaSub) account(parent, l *depa.Label, f *depa.Flat) {
	d.labels.Add(1)
	mem := int64(l.MemBytes())
	pw := 0
	if parent != nil {
		pw = parent.FullWords()
	}
	if l.FullWords() != pw {
		mem += int64(depa.ChunkBytes)
		d.chunks.Add(1)
	}
	if f != nil {
		mem += int64(f.MemBytes())
	}
	d.labelMem.Add(mem)
	depth := int64(l.Depth())
	for {
		cur := d.maxDepth.Load()
		if depth <= cur || d.maxDepth.CompareAndSwap(cur, depth) {
			return
		}
	}
}

// extend grows one strand's representation pair: the cord always, the
// flat only while the parent still has one below the threshold — once
// a path crosses hybridDepth its flats stop forever (descendants only
// get deeper), so the redundant copy is bounded by threshold words.
func (d *depaSub) extend(la *depa.Arena, ul *depa.Label, uf *depa.Flat, c uint8) (*depa.Label, *depa.Flat) {
	l := ul.Extend(la, c)
	var f *depa.Flat
	if uf != nil && uf.Depth() < d.hybridDepth {
		f = uf.Extend(la, c)
	}
	d.account(ul, l, f)
	return l, f
}

func (d *depaSub) placeRoot(a *laneAlloc, rn *node) {
	la := labelsOf(a)
	l := depa.NewLabel(la)
	var f *depa.Flat
	if d.hybridDepth > 0 {
		f = depa.NewFlat(la)
	}
	d.account(nil, l, f)
	rn.setDepa(l, f)
}

func (d *depaSub) placeBranch(a *laneAlloc, un, cn, kn, pn *node) {
	la := labelsOf(a)
	ul, uf := un.depaLabel(), un.depaFlat()
	cn.setDepa(d.extend(la, ul, uf, depa.Child))
	kn.setDepa(d.extend(la, ul, uf, depa.Cont))
	if pn != nil {
		pn.setDepa(d.extend(la, ul, uf, depa.Sync))
	}
}

// placeSerial appends Child: any single component keeps gn adjacent to
// un in both orders, because un anchors no other placement (each
// strand forks at most once) so no other label extends un's.
func (d *depaSub) placeSerial(a *laneAlloc, un, gn *node) {
	gn.setDepa(d.extend(labelsOf(a), un.depaLabel(), un.depaFlat(), depa.Child))
}

// rel dispatches one order query: the flat fast path when both strands
// are shallow enough to carry packed copies, the cord compare (with
// its LCA skip) otherwise. Comparing a flat against a cord is never
// needed — the cords are always there.
func (d *depaSub) rel(u, v *node) (eng, heb bool) {
	var w int
	if uf, vf := u.depaFlat(), v.depaFlat(); uf != nil && vf != nil {
		eng, heb, w = depa.RelFlat(uf, vf)
		d.flatCmps.Add(1)
	} else {
		eng, heb, w = depa.Rel(u.depaLabel(), v.depaLabel())
	}
	d.cmps.Add(1)
	d.cmpWords.Add(uint64(w))
	return eng, heb
}

func (d *depaSub) psp(u, v *node) bool {
	eng, heb := d.rel(u, v)
	return eng && heb
}

// leftOf answers the English-order query alone through the dedicated
// depa.LeftOf entry points: the same LCA-skip walk (or flat compare) as
// rel, minus the Hebrew remap. Counted on the same compare gauges.
func (d *depaSub) leftOf(u, v *node) bool {
	var left bool
	var w int
	if uf, vf := u.depaFlat(), v.depaFlat(); uf != nil && vf != nil {
		left, w = depa.LeftOfFlat(uf, vf)
		d.flatCmps.Add(1)
	} else {
		left, w = depa.LeftOf(u.depaLabel(), v.depaLabel())
	}
	d.cmps.Add(1)
	d.cmpWords.Add(uint64(w))
	return left
}

func (d *depaSub) memBytes() int { return int(d.labelMem.Load()) }

// registerStats publishes the label-substrate counters. The om.*
// gauges are deliberately absent: under DePa there are no lists, and a
// Stats lookup of om.lock_acquires reads zero — which is exactly the
// ABL10 claim the tests pin.
func (d *depaSub) registerStats(reg *obsv.Registry) {
	reg.RegisterFunc("depa.labels", func() int64 { return d.labels.Load() })
	reg.RegisterFunc("depa.label_mem_bytes", func() int64 { return d.labelMem.Load() })
	reg.RegisterFunc("depa.max_depth", func() int64 { return d.maxDepth.Load() })
	reg.RegisterFunc("depa.chunks", func() int64 { return d.chunks.Load() })
	reg.RegisterFunc("depa.compares", func() int64 { return int64(d.cmps.Load()) })
	reg.RegisterFunc("depa.compare_words", func() int64 { return int64(d.cmpWords.Load()) })
	reg.RegisterFunc("depa.flat_compares", func() int64 { return int64(d.flatCmps.Load()) })
}

var (
	_ Reachability = (*omPair)(nil)
	_ Reachability = (*depaSub)(nil)
)
