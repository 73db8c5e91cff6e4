package detect

import (
	"sync"
	"testing"
	"unsafe"
)

// TestAccountingSizes pins the memory-accounting sizes to the real
// struct layouts: each is what its fields add up to, so a field added to
// page or record fails here instead of skewing MemBytes (and the
// benchmark's detector_mem_mb) silently.
func TestAccountingSizes(t *testing.T) {
	const ptr = unsafe.Sizeof(uintptr(0))
	// record: writer, reader, the readers slice header, the pairs map.
	if want := int(2*ptr + unsafe.Sizeof([]uintptr(nil)) + ptr); recordBytes != want {
		t.Errorf("record is %d bytes, its fields add up to %d", recordBytes, want)
	}
	// page: mu, num, next, one pointer per slot — no record held inline.
	if want := int(unsafe.Sizeof(sync.Mutex{}) + 8 + ptr + pageSize*ptr); pageBytes != want {
		t.Errorf("page is %d bytes, its fields add up to %d", pageBytes, want)
	}
	if want := int(2 * ptr); pairBytes != want {
		t.Errorf("lrPair is %d bytes, its fields add up to %d", pairBytes, want)
	}
	if got, want := int(unsafe.Sizeof(table{})), int((1<<dirBits)*ptr); got != want {
		t.Errorf("table is %d bytes, its directory adds up to %d", got, want)
	}
}

// TestHistoryMemPerLocation pins MemBytes per populated location for the
// three address patterns the repository's programs produce, every
// location written once and then read once by a second strand. A layout
// that buys dense speed with sparse memory (records inline in the page,
// say) passes the first row and fails the other two.
func TestHistoryMemPerLocation(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the limits below are for 64-bit platforms")
	}
	for _, tc := range []struct {
		name      string
		locations int
		stride    uint64
		limit     int // bytes per location
	}{
		// record 48 + one reader 8 + slot 8, and 2 for the page header and
		// the directory.
		{"dense stride 1", 1 << 14, 1, 66},
		// 32 records to a page: each carries 8 slots.
		{"pointer-keyed stride 8 (ShadowAddr)", 1 << 14, 8, 122},
		// The directory's 32 KiB over 32 locations, as in racy-small.
		{"one 32-address page", 32, 1, 1144},
	} {
		h := NewHistory(Options{Reach: serialReach{}, FastPath: true})
		w, r := newStrand(1), newStrand(2)
		for i := 0; i < tc.locations; i++ {
			h.Write(w, uint64(i)*tc.stride)
		}
		h.StrandClose(w)
		for i := 0; i < tc.locations; i++ {
			h.Read(r, uint64(i)*tc.stride)
		}
		h.StrandClose(r)
		if h.RaceCount() != 0 {
			t.Fatalf("%s: serial strands raced", tc.name)
		}
		if got := h.MemBytes() / tc.locations; got > tc.limit {
			t.Errorf("%s: %d bytes per location, limit %d", tc.name, got, tc.limit)
		}
	}
}
