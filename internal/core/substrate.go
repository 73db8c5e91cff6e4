package core

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"sforder/internal/depa"
	"sforder/internal/obsv"
	"sforder/internal/om"
	"sforder/internal/slab"
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
// methods write the position of the (zeroed) records newNode returned.
type Reachability interface {
	// newNode returns a zeroed strand record of the substrate's own
	// type, from lane a's slab, as its header.
	newNode(a *laneAlloc) *node
	// nodeSize is that record's size in bytes.
	nodeSize() int
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
	// memBytes is the substrate's own footprint (list buckets or
	// labels), excluding the strand records Reach counts.
	memBytes() int
	// registerStats publishes the substrate's counters on reg.
	registerStats(reg *obsv.Registry)
}

// ---------------------------------------------------------------------
// OM backend: the English/Hebrew order-maintenance list pair.

// omPair is the paper's substrate. A strand's record is an omNode: its
// English and Hebrew items live inside it, and the inserts link them in.
type omPair struct {
	engL, hebL *om.List
}

// omNode is the OM substrate's strand record: the node header, then the
// strand's positions in the two lists. Other workers read the items
// through the lists' Precedes seqlock while the owner writes gp; they
// are distinct words.
type omNode struct {
	node
	eng, heb om.Item
}

var (
	// 256 × 56 B = 14 KiB per slab.
	omNodePool = slab.NewPool[omNode](256)
	omNodeSize = int(unsafe.Sizeof(omNode{}))
)

// omOf returns the record whose header is n.
func omOf(n *node) *omNode { return (*omNode)(unsafe.Pointer(n)) }

func newOMPair() *omPair {
	return &omPair{engL: om.NewList(), hebL: om.NewList()}
}

func (p *omPair) newNode(a *laneAlloc) *node {
	n := a.omNodes.Get(omNodePool)
	*n = omNode{}
	return &n.node
}

func (p *omPair) nodeSize() int { return omNodeSize }

func (p *omPair) placeRoot(a *laneAlloc, rn *node) {
	r := omOf(rn)
	p.engL.InsertFirst(&r.eng)
	p.hebL.InsertFirst(&r.heb)
}

// placeBranch runs the two batch inserts back to back with nothing
// between them; each keeps its run adjacent (see the om package
// comment), and no lock spans both lists — English and Hebrew
// positions are independent.
func (p *omPair) placeBranch(a *laneAlloc, un, cn, kn, pn *node) {
	u, c, k := omOf(un), omOf(cn), omOf(kn)
	// English order u, child, cont[, placeholder]; Hebrew order
	// u, cont, child[, placeholder].
	eng := [3]*om.Item{&c.eng, &k.eng}
	heb := [3]*om.Item{&k.heb, &c.heb}
	n := 2
	if pn != nil {
		pl := omOf(pn)
		eng[2], heb[2], n = &pl.eng, &pl.heb, 3
	}
	p.engL.InsertAfterN(&u.eng, eng[:n])
	p.hebL.InsertAfterN(&u.heb, heb[:n])
}

func (p *omPair) placeSerial(a *laneAlloc, un, gn *node) {
	u, g := omOf(un), omOf(gn)
	eng, heb := [1]*om.Item{&g.eng}, [1]*om.Item{&g.heb}
	p.engL.InsertAfterN(&u.eng, eng[:])
	p.hebL.InsertAfterN(&u.heb, heb[:])
}

func (p *omPair) psp(un, vn *node) bool {
	u, v := omOf(un), omOf(vn)
	return p.engL.Precedes(&u.eng, &v.eng) && p.hebL.Precedes(&u.heb, &v.heb)
}

func (p *omPair) leftOf(u, v *node) bool {
	return p.engL.Precedes(&omOf(u).eng, &omOf(v).eng)
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
// The label is a prefix-sharing cord (depaNode.label): Extend copies one
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

// depaNode is the DePa substrate's strand record: the node header, then
// the strand's cord label.
type depaNode struct {
	node
	label *depa.Label
}

var (
	// 256 × 16 B = 4 KiB per slab.
	depaNodePool = slab.NewPool[depaNode](256)
	depaNodeSize = int(unsafe.Sizeof(depaNode{}))
)

// labelOf returns the cord label of the record whose header is n.
func labelOf(n *node) *depa.Label { return (*depaNode)(unsafe.Pointer(n)).label }

// setLabel positions the record whose header is n.
func setLabel(n *node, l *depa.Label) { (*depaNode)(unsafe.Pointer(n)).label = l }

func (d *depaSub) newNode(a *laneAlloc) *node {
	n := a.depaNodes.Get(depaNodePool)
	*n = depaNode{}
	return &n.node
}

func (d *depaSub) nodeSize() int { return depaNodeSize }

// account records a new label on the gauges: the chunk nodes frozen for
// it, their bytes, and its depth.
func (d *depaSub) account(chunks, mem, depth int64) {
	d.labels.Add(1)
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
	d.account(chunks, int64(l.MemBytes())+chunks*int64(depa.ChunkBytes), int64(l.Depth()))
	return l
}

func (d *depaSub) placeRoot(a *laneAlloc, rn *node) {
	l := depa.NewLabel(&a.labels)
	d.account(0, int64(l.MemBytes()), 0)
	setLabel(rn, l)
}

func (d *depaSub) placeBranch(a *laneAlloc, un, cn, kn, pn *node) {
	la, ul := &a.labels, labelOf(un)
	setLabel(cn, d.extend(la, ul, depa.Child))
	setLabel(kn, d.extend(la, ul, depa.Cont))
	if pn != nil {
		setLabel(pn, d.extend(la, ul, depa.Sync))
	}
}

// placeSerial appends Child: any single component keeps gn adjacent to
// un in both orders, because un anchors no other placement (each
// strand forks at most once) so no other label extends un's.
func (d *depaSub) placeSerial(a *laneAlloc, un, gn *node) {
	setLabel(gn, d.extend(&a.labels, labelOf(un), depa.Child))
}

// count records one compare of w words on the depa.compares gauges.
func (d *depaSub) count(w int) {
	if d.counted {
		d.cmps.Add(1)
		d.cmpWords.Add(uint64(w))
	}
}

func (d *depaSub) psp(u, v *node) bool {
	eng, heb, w := depa.Rel(labelOf(u), labelOf(v))
	d.count(w)
	return eng && heb
}

// leftOf answers the English-order query alone: the same LCA-skip walk
// as psp, minus the Hebrew remap.
func (d *depaSub) leftOf(u, v *node) bool {
	left, w := depa.LeftOf(labelOf(u), labelOf(v))
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
