// Offline label tables: bulk construction of fork-path labels from a
// recorded strand forest, without a live scheduler or arena.
//
// A fork-path label is a pure function of the path of branch decisions
// from the root — nothing else. Online, Extend computes it one strand
// at a time as the tracer observes branches; offline, a capture's
// structure events fix every path up front, so the whole label set can
// be computed in bulk: one serial O(1)-per-strand index pass derives
// each strand's tail word, frozen-chunk anchor, and depth from its
// parent's, and then any number of workers materialize the Label and
// chunk records over disjoint index ranges. The fill is
// embarrassingly parallel even on a pure chain (every cross-reference
// is by array index, and taking an element's address needs no
// ordering), which is what makes the replay rebuild scale where the
// order-maintenance substrate — one mutable list — cannot.
//
// The table reproduces the online construction exactly: one chunk node
// per freeze point, prev-linked to the parent's anchor, so chunk
// sharing is structural and the LCA-skip compare in Rel examines the
// same words it would on Extend-built labels.
package depa

import (
	"fmt"
	"sync"
)

// TableConfig configures BuildTable.
type TableConfig struct {
	// Workers is the number of concurrent fill workers; values below 2
	// fill serially.
	Workers int
}

// Table is a read-only fork-path label set built by BuildTable: one
// Label per strand (indexed as the input arrays were) and the shared
// frozen chunks. Immutable after BuildTable returns; any number of
// goroutines may query concurrently.
type Table struct {
	labels   []Label
	chunks   []chunk
	maxDepth int
	segWork  []int64 // fill work units (labels + chunks) per worker segment
}

// BuildTable computes the labels of a strand forest given, for each
// strand i in a topological order (parents before children):
//
//   - parent[i]: the index of the strand it forked from, -1 for a root.
//   - comp[i]: the branch component it appended (Child, Cont, or Sync);
//     ignored for roots.
//
// The result is bit- and structure-identical to extending labels one
// strand at a time in the same order: same words, same chunk-sharing
// shape, so Rel/LeftOf verdicts and compare-word counts agree with an
// online run over the same forest.
func BuildTable(parent []int32, comp []uint8, cfg TableConfig) (*Table, error) {
	n := len(parent)
	if len(comp) != n {
		return nil, fmt.Errorf("depa: table: %d parents but %d components", n, len(comp))
	}

	// Serial index pass: the per-strand recurrence. A strand's tail
	// always holds depth%32 components (a freeze empties it), so the
	// shift position follows from the parent's depth alone.
	depth := make([]int32, n)
	tail := make([]uint64, n)
	anchor := make([]int32, n) // index of the last frozen chunk; -1 none
	var chWord []uint64
	var chPrev []int32
	var chOwner []int32 // the strand whose extension froze the chunk
	maxDepth := int32(0)
	for i := 0; i < n; i++ {
		p := parent[i]
		if p < 0 {
			anchor[i] = -1
			continue
		}
		if int(p) >= i {
			return nil, fmt.Errorf("depa: table: strand %d has parent %d out of topological order", i, p)
		}
		c := comp[i]
		if c == 0 || c > Sync {
			return nil, fmt.Errorf("depa: table: strand %d has invalid component %d", i, c)
		}
		r := uint(depth[p]) % compsPerWord
		w := tail[p] | uint64(c)<<(62-2*r)
		depth[i] = depth[p] + 1
		if depth[i] > maxDepth {
			maxDepth = depth[i]
		}
		if r == compsPerWord-1 {
			anchor[i] = int32(len(chWord))
			chWord = append(chWord, w)
			chPrev = append(chPrev, anchor[p])
			chOwner = append(chOwner, int32(i))
			tail[i] = 0
		} else {
			anchor[i] = anchor[p]
			tail[i] = w
		}
	}

	t := &Table{
		labels:   make([]Label, n),
		chunks:   make([]chunk, len(chWord)),
		maxDepth: int(maxDepth),
	}

	// Fill pass: materialize labels[i] and the chunk strand i froze (each
	// chunk has exactly one owner, so writes are disjoint). Every
	// cross-reference is &t.chunks[j] — an address, valid
	// before the element is filled — so contiguous index ranges are
	// fully independent whatever the forest's shape.
	fill := func(lo, hi int) int64 {
		work := int64(0)
		for i := lo; i < hi; i++ {
			var fz *chunk
			if a := anchor[i]; a >= 0 {
				fz = &t.chunks[a]
				if chOwner[a] == int32(i) {
					var prev *chunk
					if pi := chPrev[a]; pi >= 0 {
						prev = &t.chunks[pi]
					}
					fz.prev, fz.word, fz.idx = prev, chWord[a], uint32(depth[i]/compsPerWord-1)
					work++
				}
			}
			t.labels[i] = Label{frozen: fz, tail: tail[i]}
			work++
		}
		return work
	}

	workers := cfg.Workers
	if workers > n {
		workers = n
	}
	if workers < 2 {
		t.segWork = []int64{fill(0, n)}
		return t, nil
	}
	t.segWork = make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			t.segWork[w] = fill(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	return t, nil
}

// Len returns the number of labels in the table.
func (t *Table) Len() int { return len(t.labels) }

// Label returns strand i's cord label.
func (t *Table) Label(i int) *Label { return &t.labels[i] }

// Chunks returns the number of frozen chunk nodes in the table.
func (t *Table) Chunks() int { return len(t.chunks) }

// MaxDepth returns the deepest fork path in the table.
func (t *Table) MaxDepth() int { return t.maxDepth }

// SegmentWork returns the fill work units (labels plus frozen chunks
// materialized) per worker segment — the machine-independent balance
// evidence that the fill parallelized.
func (t *Table) SegmentWork() []int64 { return t.segWork }

// MemBytes returns the table's label footprint, item for item what the
// online substrate would have accounted for the same forest: one label
// header per strand and one chunk node per freeze.
func (t *Table) MemBytes() int {
	return len(t.labels)*LabelBytes + len(t.chunks)*ChunkBytes
}
