package om

import "sforder/internal/slab"

// ItemArena is a slab allocator for Items, used by the per-worker lane
// arenas of internal/core so the reach hot path allocates dag positions
// with a pointer bump instead of a heap allocation. Single-owner; a nil
// *ItemArena falls back to the heap, which is what callers without lane
// state use. An item's fields are set by the insert that places it — it
// is never published before its label, bucket, and next link are
// stored — so recycled items need no zeroing.
type ItemArena = slab.Arena[Item]

// itemPool's chunks hold 512 items at 24 bytes each, a 12 KiB slab: big
// enough to amortize the pool round trip, small enough that a
// mostly-idle lane wastes little.
var itemPool = slab.NewPool[Item](512)
