package om

import (
	"bytes"
	"fmt"
	"testing"
)

// listOps decodes fuzz bytes into insert sequences and checks the list
// against refList after every operation. The first byte picks the lock
// mode and a soft top-level bound of 2^4..2^11, so a few hundred items
// already exhaust it: global renumbers, escalation to the hard bound of
// 2^40, and local-range renumbers under the widened bound all fire.
// Every later byte pair is one operation:
//
//	op&3       run length: op&3+1, except 1 for op&3 = 3
//	op>>2&3    anchor: arg-th existing item, the newest item, the first
//	           item of the newest run, or the list's first item
//	op>>4      repeats of the same operation, 1..16
//
// The newest-item and newest-run anchors are the English and Hebrew
// frontier patterns of the reachability substrate; a repeated first-item
// anchor is the same-anchor storm that forces in-bucket relabels.
type listOps struct {
	l      *List
	ref    refList
	newest []*Item
}

// maxFuzzItems caps a list so that checking the whole order after every
// operation stays cheap.
const maxFuzzItems = 3000

func newListOps(cfg byte) *listOps {
	l := NewList()
	if cfg&1 != 0 {
		l = NewListGlobalLock()
	}
	l.SetLabelSpaceForTest(1<<(4+cfg>>1%8), 1<<40)
	o := &listOps{l: l}
	first := l.NewFirst()
	o.ref.insertAfter(nil, first)
	o.newest = []*Item{first}
	return o
}

func (o *listOps) anchor(mode, arg byte) *Item {
	switch mode {
	case 0:
		return o.ref.items[int(arg)%len(o.ref.items)]
	case 1:
		return o.newest[len(o.newest)-1]
	case 2:
		return o.newest[0]
	}
	return o.ref.items[0]
}

// apply runs one operation and returns an error when the list disagrees
// with the reference.
func (o *listOps) apply(op, arg byte) error {
	for rep := 0; rep <= int(op>>4) && len(o.ref.items) < maxFuzzItems; rep++ {
		x := o.anchor(op>>2&3, arg+byte(rep))
		n := int(op&3) + 1
		if n == 4 {
			n = 1
		}
		run := o.l.NewAfterN(x, n)
		prev := x
		for _, it := range run {
			o.ref.insertAfter(prev, it)
			prev = it
		}
		o.newest = run
		if err := o.check(); err != nil {
			return fmt.Errorf("after %d item(s) after anchor mode %d: %v", len(run), op>>2&3, err)
		}
	}
	return nil
}

// check compares the whole order, every adjacent pair's Precedes in both
// directions, the length, and the structural invariants.
func (o *listOps) check() error {
	if err := o.l.CheckInvariants(); err != nil {
		return err
	}
	if o.l.Len() != len(o.ref.items) {
		return fmt.Errorf("Len %d, reference %d", o.l.Len(), len(o.ref.items))
	}
	for i, it := range o.l.Order() {
		if it != o.ref.items[i] {
			return fmt.Errorf("Order differs from the reference at %d", i)
		}
	}
	for i := 1; i < len(o.ref.items); i++ {
		a, b := o.ref.items[i-1], o.ref.items[i]
		if !o.l.Precedes(a, b) || o.l.Precedes(b, a) {
			return fmt.Errorf("Precedes wrong for the adjacent pair at %d", i)
		}
	}
	return nil
}

func runListOps(data []byte) (*listOps, error) {
	if len(data) == 0 {
		return nil, nil
	}
	o := newListOps(data[0])
	for i := 1; i+1 < len(data); i += 2 {
		if err := o.apply(data[i], data[i+1]); err != nil {
			return o, fmt.Errorf("op %d: %v", i/2, err)
		}
	}
	return o, nil
}

// listSeeds are inputs that between them reach every kind of
// maintenance; TestListSeedsReachMaintenance pins that they do.
var listSeeds = [][]byte{
	{0, 0x03, 7, 0x12, 1, 0x21, 200},
	// Same-anchor storm on a fresh list: 64 items after the first item
	// exhaust the first bucket's labels before it fills.
	{6, 0xfc, 0, 0xfc, 0, 0xfc, 0, 0xfc, 0},
	// English and Hebrew frontiers, fine-grained and globally locked.
	{0, 0xf5, 0, 0xf5, 0, 0xf6, 0, 0xf5, 0, 0xf6, 0, 0xf5, 0, 0xf6, 0, 0xf5, 0, 0xf6, 0, 0xf6, 0, 0xf6, 0},
	{1, 0xf9, 0, 0xf9, 0, 0xfa, 0, 0xf9, 0, 0xfa, 0, 0xf9, 0, 0xfa, 0, 0xf9, 0, 0xfa, 0, 0xfa, 0, 0xfa, 0},
	// Random anchors after an English frontier.
	{8, 0xf6, 0, 0xf6, 0, 0xf6, 0, 0xf6, 0, 0xf0, 3, 0xf1, 91, 0xf2, 17, 0xf3, 250},
	// A long English frontier: past the escalation, the widened bound
	// has room for local-range renumbers.
	append([]byte{0}, bytes.Repeat([]byte{0xf6, 0}, 48)...),
}

// FuzzList drives InsertAfterN runs of fresh items at arbitrary existing
// anchors under a shrunken label space and checks every operation
// against the reference slice model.
func FuzzList(f *testing.F) {
	for _, s := range listSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := runListOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestListSeedsReachMaintenance pins that FuzzList's seeds split,
// relabel, renumber and escalate, so the fuzz smoke exercises every
// maintenance path from its first input.
func TestListSeedsReachMaintenance(t *testing.T) {
	var splits, relabels, renumbers int
	var escalations int64
	for i, s := range listSeeds {
		o, err := runListOps(s)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		sp, rl, rn := o.l.Stats()
		splits, relabels, renumbers = splits+sp, relabels+rl, renumbers+rn
		escalations += o.l.Escalations()
	}
	if splits == 0 || relabels == 0 || renumbers == 0 || escalations == 0 {
		t.Fatalf("seeds reached splits=%d relabels=%d renumbers=%d escalations=%d, want all > 0",
			splits, relabels, renumbers, escalations)
	}
}
