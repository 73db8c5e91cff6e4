package detect

// The directory's geometry and the accounting sizes, for the external
// tests that check MemBytes against them: a block and a page count what
// the heap gives them.
const (
	DirBlocks  = 1 << topBits
	TopBytes   = topBytes
	RacyBytes  = racyBytes
	StateBytes = stateBytes
)

var (
	BlockBytes = blockHeap
	PageBytes  = pageHeap
	IndexBytes = indexHeap
)

// OwnedIndexes returns how many of h's pages have an index of their own,
// and how many pages h has.
func OwnedIndexes(h *History) (owned, pages int) {
	h.tbl.forEachPage(func(p *page) {
		if p.idx != &zeroIndex {
			owned++
		}
		pages++
	})
	return owned, pages
}

// DirBlockOf returns the directory block page num hashes into.
func DirBlockOf(num uint64) int { return dirSlot(num) >> blockBits }
