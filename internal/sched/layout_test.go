package sched

import (
	"testing"
	"unsafe"
)

// TestEngineSize pins the engine at 384 bytes, all of its allocation size
// class, whose objects start on cache-line boundaries. A 16-byte field
// more made it 392 bytes, and dag-futures' full_overhead_tp and
// record_overhead_tp read 7% worse; see the apply field.
func TestEngineSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is a size class chosen by measurement on amd64, so it holds on 64-bit platforms only")
	}
	if n := unsafe.Sizeof(engine{}); n != 384 {
		t.Errorf("the engine is %d bytes, want 384", n)
	}
}

// TestStrandSize pins a Strand at 72 bytes: in the 64-byte size class
// dag-futures' reach_overhead_t1 read 5-7% worse (EXPERIMENTS ABL7). The
// lane field now fills the word that used to be padding to get there.
func TestStrandSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is a size class chosen by measurement on amd64, so it holds on 64-bit platforms only")
	}
	if n := unsafe.Sizeof(Strand{}); n != 72 {
		t.Errorf("a Strand is %d bytes, want 72", n)
	}
}
