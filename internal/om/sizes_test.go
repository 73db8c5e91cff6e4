package om

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestAccountingSizes pins the memory-accounting sizes to the real
// struct layouts. The old hand-written constants (itemSize=24,
// bucketSize=64) had drifted from the structs they were supposed to
// describe; the sizes are now derived with unsafe.Sizeof and this test
// both re-derives them and pins the expected 64-bit values so that
// accidental struct growth shows up as a failed test, not as a silently
// wrong MemBytes. Items are counted by the callers that embed them, so
// their size is pinned here for those callers' records.
func TestAccountingSizes(t *testing.T) {
	if bucketSize != int(unsafe.Sizeof(bucket{})) {
		t.Errorf("bucketSize %d != sizeof(bucket) %d", bucketSize, unsafe.Sizeof(bucket{}))
	}
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("expected values below are for 64-bit platforms")
	}
	// Item: bucket pointer (8) + label (8) + next pointer (8). The
	// atomics being exactly their value is also what Item.place's plain
	// stores rely on.
	if unsafe.Sizeof(atomic.Pointer[bucket]{}) != 8 || unsafe.Sizeof(atomic.Uint64{}) != 8 {
		t.Errorf("atomic.Pointer is %d bytes and atomic.Uint64 %d, want 8 each",
			unsafe.Sizeof(atomic.Pointer[bucket]{}), unsafe.Sizeof(atomic.Uint64{}))
	}
	if got := unsafe.Sizeof(Item{}); got != 24 {
		t.Errorf("Item grew: %d bytes, expected 24", got)
	}
	// bucket: label (8) + prev/next (16) + mutex (8) + head (8) + count (8).
	if bucketSize != 48 {
		t.Errorf("bucket grew: %d bytes, expected 48", bucketSize)
	}
}
