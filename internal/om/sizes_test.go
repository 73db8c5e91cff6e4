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
// both re-derives them from the pointer size and pins the expected 64-bit
// values so that accidental struct growth shows up as a failed test, not
// as a silently wrong MemBytes. Items are counted by the callers that
// embed them, so their size is pinned here for those callers' records.
func TestAccountingSizes(t *testing.T) {
	if bucketSize != int(unsafe.Sizeof(bucket{})) {
		t.Errorf("bucketSize %d != sizeof(bucket) %d", bucketSize, unsafe.Sizeof(bucket{}))
	}
	const ptr = unsafe.Sizeof(uintptr(0))
	// The atomics being exactly their value is what Item.place's plain
	// stores rely on.
	if unsafe.Sizeof(atomic.Pointer[bucket]{}) != ptr || unsafe.Sizeof(atomic.Uint64{}) != 8 {
		t.Errorf("atomic.Pointer is %d bytes and atomic.Uint64 %d, want %d and 8",
			unsafe.Sizeof(atomic.Pointer[bucket]{}), unsafe.Sizeof(atomic.Uint64{}), ptr)
	}
	// Item: bucket pointer + label (8) + next pointer, each pointer padded
	// to the label's 8-byte alignment: 24 bytes on every platform.
	if got := unsafe.Sizeof(Item{}); got != 24 {
		t.Errorf("Item grew: %d bytes, expected 24", got)
	}
	// bucket: label (8) + prev/next (2 pointers) + mutex (8) + head (a
	// pointer) + count (an int): 48 bytes on 64-bit platforms.
	if want := int(8 + 2*ptr + 8 + ptr + ptr); bucketSize != want || ptr == 8 && bucketSize != 48 {
		t.Errorf("bucket grew: %d bytes, expected %d (48 on 64-bit platforms)", bucketSize, want)
	}
}
