package forder

import (
	"testing"
	"unsafe"

	"sforder/internal/om"
)

// TestAccountingSizes pins the per-strand record size to the real
// struct layout (unsafe.Sizeof-derived), with the 64-bit number pinned so
// growth fails loudly instead of skewing MemBytes.
func TestAccountingSizes(t *testing.T) {
	if nodeSize != int(unsafe.Sizeof(node{})) {
		t.Errorf("nodeSize %d != sizeof(node) %d", nodeSize, unsafe.Sizeof(node{}))
	}
	// Two inline om.Items (24 bytes on every platform, 8-byte aligned for
	// their label) and the opset map pointer, rounded up to that
	// alignment: 56 bytes on 64-bit platforms.
	const ptr = unsafe.Sizeof(uintptr(0))
	item := unsafe.Sizeof(om.Item{})
	if want := int(2*item+ptr+7) &^ 7; item != 24 || nodeSize != want || ptr == 8 && nodeSize != 56 {
		t.Errorf("node grew: %d bytes of %d-byte items, expected %d (56)", nodeSize, item, want)
	}
}
