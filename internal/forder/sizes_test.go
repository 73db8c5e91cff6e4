package forder

import (
	"testing"
	"unsafe"
)

// TestAccountingSizes pins the per-strand record size to the real
// struct layout (unsafe.Sizeof-derived; 64-bit expectation pinned so
// growth fails loudly instead of skewing MemBytes).
func TestAccountingSizes(t *testing.T) {
	if nodeSize != int(unsafe.Sizeof(node{})) {
		t.Errorf("nodeSize %d != sizeof(node) %d", nodeSize, unsafe.Sizeof(node{}))
	}
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("expected value below is for 64-bit platforms")
	}
	// Two inline om.Items of 24 bytes and the opset map pointer.
	if nodeSize != 56 {
		t.Errorf("node grew: %d bytes, expected 56", nodeSize)
	}
}
