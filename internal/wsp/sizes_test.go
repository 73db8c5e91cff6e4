package wsp

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
	// Two inline om.Items, 24 bytes on every platform.
	if item := unsafe.Sizeof(om.Item{}); item != 24 || nodeSize != int(2*item) {
		t.Errorf("node grew: %d bytes of %d-byte items, expected 48", nodeSize, item)
	}
}
