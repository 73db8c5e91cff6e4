package detect

// The directory's geometry and the accounting sizes, for the external
// tests that check MemBytes against them.
const (
	DirBlocks  = 1 << topBits
	TopBytes   = topBytes
	BlockBytes = blockBytes
	PageBytes  = pageBytes
	RacyBytes  = racyBytes
	StateBytes = stateBytes
)

// DirBlockOf returns the directory block page num hashes into.
func DirBlockOf(num uint64) int { return dirSlot(num) >> blockBits }
