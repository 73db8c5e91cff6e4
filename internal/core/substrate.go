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
)

// String returns the -reach flag spelling of the substrate.
func (s Substrate) String() string {
	switch s {
	case SubstrateOM:
		return "om"
	case SubstrateDePa:
		return "depa"
	}
	return fmt.Sprintf("Substrate(%d)", int(s))
}

// Validate returns an error unless s names a substrate; New panics on one
// that does not, so the run entry points check it as a configuration
// error first.
func (s Substrate) Validate() error {
	if s != SubstrateOM && s != SubstrateDePa {
		return fmt.Errorf("unknown reachability substrate %v (want om or depa)", s)
	}
	return nil
}

// ParseSubstrate parses a -reach flag value ("om" or "depa").
func ParseSubstrate(name string) (Substrate, error) {
	switch name {
	case "om", "":
		return SubstrateOM, nil
	case "depa":
		return SubstrateDePa, nil
	}
	return SubstrateOM, fmt.Errorf("unknown reachability substrate %q (want om or depa)", name)
}

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
// The label is a prefix-sharing cord (node.depaLabel): Extend copies one
// word and the frozen chain is shared with the parent, so label memory
// is O(strands) and depa.Rel answers from O(1) words via the
// pointer-equality prefix skip — which is only O(1) because chunk
// sharing is structural: deep labels descend from their ancestors'
// actual chunk nodes, never from a rebuilt copy.
type depaSub struct {
	labels   atomic.Int64 // labels assigned
	labelMem atomic.Int64 // bytes: cord headers + frozen chunks
	maxDepth atomic.Int64 // deepest fork path seen
	chunks   atomic.Int64 // chunk nodes frozen (shared words)

	// counted is set by registerStats, before the run: only then do
	// queries pay for the two shared counters below (replay's shards and
	// every online worker would otherwise write one cache line per
	// compare).
	counted  bool
	cmps     atomic.Uint64 // compares (psp + leftOf)
	cmpWords atomic.Uint64 // words examined across all compares
}

// account records new labels on the gauges — how many, the chunk nodes
// frozen for them, their bytes, and the deepest: one label per online
// Extend, a whole table at once offline.
func (d *depaSub) account(labels, chunks, mem, depth int64) {
	d.labels.Add(labels)
	if chunks != 0 {
		d.chunks.Add(chunks)
	}
	d.labelMem.Add(mem)
	for {
		cur := d.maxDepth.Load()
		if depth <= cur || d.maxDepth.CompareAndSwap(cur, depth) {
			return
		}
	}
}

// extend appends component c to the label ul. The new strand's label is
// its cord header plus the chunk node if this Extend froze one (parent
// and child then disagree on FullWords — counting it here, exactly
// once, is what keeps shared words out of the per-label figure).
func (d *depaSub) extend(la *depa.Arena, ul *depa.Label, c uint8) *depa.Label {
	l := ul.Extend(la, c)
	chunks := int64(l.FullWords() - ul.FullWords())
	d.account(1, chunks, int64(l.MemBytes())+chunks*int64(depa.ChunkBytes), int64(l.Depth()))
	return l
}

func (d *depaSub) placeRoot(a *laneAlloc, rn *node) {
	l := depa.NewLabel(labelsOf(a))
	d.account(1, 0, int64(l.MemBytes()), 0)
	rn.setDepa(l)
}

func (d *depaSub) placeBranch(a *laneAlloc, un, cn, kn, pn *node) {
	la, ul := labelsOf(a), un.depaLabel()
	cn.setDepa(d.extend(la, ul, depa.Child))
	kn.setDepa(d.extend(la, ul, depa.Cont))
	if pn != nil {
		pn.setDepa(d.extend(la, ul, depa.Sync))
	}
}

// placeSerial appends Child: any single component keeps gn adjacent to
// un in both orders, because un anchors no other placement (each
// strand forks at most once) so no other label extends un's.
func (d *depaSub) placeSerial(a *laneAlloc, un, gn *node) {
	gn.setDepa(d.extend(labelsOf(a), un.depaLabel(), depa.Child))
}

// count records one compare of w words on the depa.compares gauges.
func (d *depaSub) count(w int) {
	if d.counted {
		d.cmps.Add(1)
		d.cmpWords.Add(uint64(w))
	}
}

func (d *depaSub) psp(u, v *node) bool {
	eng, heb, w := depa.Rel(u.depaLabel(), v.depaLabel())
	d.count(w)
	return eng && heb
}

// leftOf answers the English-order query alone: the same LCA-skip walk
// as psp, minus the Hebrew remap.
func (d *depaSub) leftOf(u, v *node) bool {
	left, w := depa.LeftOf(u.depaLabel(), v.depaLabel())
	d.count(w)
	return left
}

func (d *depaSub) memBytes() int { return int(d.labelMem.Load()) }

// registerStats publishes the label-substrate counters. The om.*
// gauges are deliberately absent: under DePa there are no lists, and a
// Stats lookup of om.lock_acquires reads zero — which is exactly the
// ABL10 claim the tests pin.
func (d *depaSub) registerStats(reg *obsv.Registry) {
	d.counted = true
	reg.RegisterFunc("depa.labels", func() int64 { return d.labels.Load() })
	reg.RegisterFunc("depa.label_mem_bytes", func() int64 { return d.labelMem.Load() })
	reg.RegisterFunc("depa.max_depth", func() int64 { return d.maxDepth.Load() })
	reg.RegisterFunc("depa.chunks", func() int64 { return d.chunks.Load() })
	reg.RegisterFunc("depa.compares", func() int64 { return int64(d.cmps.Load()) })
	reg.RegisterFunc("depa.compare_words", func() int64 { return int64(d.cmpWords.Load()) })
}

var (
	_ Reachability = (*omPair)(nil)
	_ Reachability = (*depaSub)(nil)
)
