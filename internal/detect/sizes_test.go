package detect

import (
	"math/bits"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"sforder/internal/sched"
)

// TestAccountingSizes pins the memory-accounting sizes to the real
// struct layouts: each is what its fields add up to, so a field added to
// page or record fails here instead of skewing MemBytes (and the
// benchmark's detector_mem_mb) silently.
func TestAccountingSizes(t *testing.T) {
	const ptr = unsafe.Sizeof(uintptr(0))
	// state: writer, the readers slice header (ReadersLR's pairs too),
	// and one word of four 16-bit counts and links: 40 bytes.
	if want := int(ptr + unsafe.Sizeof([]uintptr(nil)) + 8); stateBytes != want || ptr == 8 && stateBytes != 40 {
		t.Errorf("state is %d bytes, its fields add up to %d; 40 on 64-bit platforms", stateBytes, want)
	}
	// page: mu, num, next, a one-byte state index per slot, the first two
	// states inline, the chunk pointers' slice header, the racy set's
	// pointer, and the state count and the free list's head in a word of
	// their own: 400 bytes, so a page of up to two states is one
	// allocation.
	if want := int(unsafe.Sizeof(sync.Mutex{}) + 8 + ptr + pageSize + 2*unsafe.Sizeof(state{}) + unsafe.Sizeof([]*state(nil)) + ptr + 8); pageBytes != want {
		t.Errorf("page is %d bytes, its fields add up to %d", pageBytes, want)
	}
	if want := pageSize / 8; racyBytes != want {
		t.Errorf("a racy set is %d bytes, a bit a slot adds up to %d", racyBytes, want)
	}
	// The table is its top array; the chain heads live in the blocks.
	if want := int((1 << topBits) * ptr); topBytes != want {
		t.Errorf("table is %d bytes, its top array adds up to %d", topBytes, want)
	}
	if want := int((1 << blockBits) * ptr); blockBytes != want {
		t.Errorf("a directory block is %d bytes, its chain heads add up to %d", blockBytes, want)
	}
}

// TestHistoryIsASmallObject: NewHistory runs once per engine.Run and once
// per replay shard, so a History must stay an allocation of Go's
// small-object path. With the directory embedded in it, it was 33,000
// bytes, above the 32 KiB small-object limit: every run took the
// large-object path and zeroed 32 KiB it mostly never used.
func TestHistoryIsASmallObject(t *testing.T) {
	if size := unsafe.Sizeof(History{}); size > 1024 {
		t.Errorf("History is %d bytes, want at most 1024", size)
	}
}

// memPattern is an address pattern of TestHistoryMemPerLocation: fill
// populates locations locations of h and returns the strands it used, so
// that they stay reachable while the heap is measured.
type memPattern struct {
	name      string
	locations int
	fill      func(h *History, locations int) []*sched.Strand
	limit     int // MemBytes per location
	policy    ReaderPolicy
}

// writeThenRead writes every stride-th address from one strand and then
// reads it from a second.
func writeThenRead(stride uint64) func(h *History, locations int) []*sched.Strand {
	return func(h *History, locations int) []*sched.Strand {
		w, r := newStrand(1), newStrand(2)
		for i := 0; i < locations; i++ {
			h.Write(w, uint64(i)*stride)
		}
		h.StrandClose(w)
		for i := 0; i < locations; i++ {
			h.Read(r, uint64(i)*stride)
		}
		h.StrandClose(r)
		return []*sched.Strand{w, r}
	}
}

// nothingShared is the worst case of the shared-state layout: every slot
// of every page was last written by a different strand, so no two slots
// of a page share a state; then one strand of each of futures futures
// reads everything, a reader list per state.
func nothingShared(futures int) func(h *History, locations int) []*sched.Strand {
	return func(h *History, locations int) []*sched.Strand {
		ss := make([]*sched.Strand, pageSize+futures)
		for i := range ss {
			ss[i] = newStrand(uint64(i))
		}
		for slot, w := range ss[:pageSize] {
			for a := uint64(slot); a < uint64(locations); a += pageSize {
				h.Write(w, a)
			}
			h.StrandClose(w)
		}
		for f, r := range ss[pageSize:] {
			r.Fut = &sched.FutureTask{ID: 1 + f}
			for a := uint64(0); a < uint64(locations); a++ {
				h.Read(r, a)
			}
			h.StrandClose(r)
		}
		return ss
	}
}

var memPatterns = []memPattern{
	// A page of 256 slots is one state: 400 for the page with its index
	// map and its two inline states, one reader; and at most 2 for the
	// directory. (Per-slot records cost 66 / 122 / 1144 on these three
	// rows.)
	{"dense stride 1", 1 << 14, writeThenRead(1), 3, ReadersAll},
	// 32 locations to a page, still one state.
	{"pointer-keyed stride 8 (ShadowAddr)", 1 << 14, writeThenRead(8), 14, ReadersAll},
	// As in racy-small: the top array and the one directory block the page
	// hashes into (512 B each), the page with its states and one reader,
	// over 32 locations. (With the whole 32 KiB directory: 1048.)
	{"one 32-address page", 32, writeThenRead(1), 44, ReadersAll},
	// A state (40), a reader (8) and an index byte per slot, 2 for the page
	// header, its chunk pointers and the directory: per-slot records cost
	// 66 here. The chunks must end at the 256 states a page can use, not
	// where append's doubling would leave a table.
	{"nothing shared", 1 << 14, nothingShared(1), 51, ReadersAll},
	// Under ReadersLR the three readers are three futures' pairs: a list of
	// six strands, at append's capacity of eight, 64 bytes a state.
	{"nothing shared, three futures (ReadersLR)", 1 << 14, nothingShared(3), 107, ReadersLR},
}

// newMemHistory is the history a memPattern fills.
func newMemHistory(tc memPattern) *History {
	leftOf := func(a, b *sched.Strand) bool { return a.ID < b.ID }
	return NewHistory(Options{Reach: serialReach{}, Policy: tc.policy, LeftOf: leftOf, FastPath: true})
}

// TestHistoryMemPerLocation pins MemBytes per populated location for the
// address patterns the repository's programs produce, every location
// written once and then read once by a second strand, and for the pattern
// in which sharing states saves nothing. A layout that buys dense speed
// with sparse memory (all 256 states inline in the page, say) passes the first row
// and fails the next two.
func TestHistoryMemPerLocation(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the limits below are for 64-bit platforms")
	}
	for _, tc := range memPatterns {
		h := newMemHistory(tc)
		tc.fill(h, tc.locations)
		if h.RaceCount() != 0 {
			t.Fatalf("%s: serial strands raced", tc.name)
		}
		got := h.MemBytes() / tc.locations
		t.Logf("%s: %d bytes per location", tc.name, got)
		if got > tc.limit {
			t.Errorf("%s: %d bytes per location, limit %d", tc.name, got, tc.limit)
		}
	}
}

// TestMemBytesTracksHeap holds the model against the allocator: what
// MemBytes reports for a populated history is within a quarter of what
// building it added to the live heap. detector_mem_mb, which the
// benchmark gates on, is this number — a layout change that lowers it
// must have freed that heap, not stopped counting it.
func TestMemBytesTracksHeap(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // twice: a sync.Pool lets go of closed strands' buffers a cycle late
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, tc := range memPatterns {
		if tc.locations < 1<<14 {
			continue // a few hundred bytes drown in the runtime's own
		}
		before := heap()
		h := newMemHistory(tc)
		strands := tc.fill(h, tc.locations)
		grew := int(heap() - before)
		for _, s := range strands {
			grew -= int(unsafe.Sizeof(*s)) // the test's, not the history's
		}
		model := h.MemBytes()
		t.Logf("%s: MemBytes %d, heap grew %d", tc.name, model, grew)
		if model < grew*3/4 || model > grew*5/4 {
			t.Errorf("%s: MemBytes says %d bytes, the heap grew by %d", tc.name, model, grew)
		}
		runtime.KeepAlive(h)
		runtime.KeepAlive(strands)
	}
}

// TestStatesNeverMove grows one page to its 256 states through ApplyPage:
// strand k writes slots k and k+128, which takes them from the untouched
// state to a fresh one, and a second strand reads slot k, which splits
// that state. Once a state is handed out it keeps its address however
// many chunks come after it, and at every step MemBytes is the half-step
// capacity (2, 3, 4, 6, 8, 12, …) of 40-byte states, inline or in chunks,
// with the chunk pointers beside them — no table to copy, no spare but the
// last chunk's.
func TestStatesNeverMove(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the sizes below are for 64-bit platforms")
	}
	h := NewHistory(Options{Reach: serialReach{}})
	reader := newStrand(1 << 20)
	var where []*state
	capacity := 2
	for k := range pageSize / 2 {
		var write, read SlotSet
		write[k>>6] |= 1 << (k & 63)
		write[(k+128)>>6] |= 1 << (k & 63)
		read[k>>6] = 1 << (k & 63)
		h.ApplyPage(newStrand(uint64(k)), 0, &SlotSet{}, &write)
		h.ApplyPage(reader, 0, &read, &SlotSet{})
		p := h.tbl.pageFor(0)
		for int(p.count) > capacity {
			capacity += 1 << (bits.Len(uint(capacity)) - 2)
		}
		readers := 0
		p.forEachState(func(i uint16, st *state) {
			if int(i) == len(where) {
				where = append(where, st)
			} else if where[i] != st {
				t.Fatalf("step %d: state %d moved from %p to %p", k, i, where[i], st)
			}
			readers += cap(st.readers)
		})
		want := topBytes + blockBytes + pageBytes - 2*40 + capacity*40 + 8*cap(p.more) + 8*readers
		if got := h.MemBytes(); got != want || p.capacity() != capacity {
			t.Fatalf("step %d: %d states in room for %d, MemBytes %d; want room for %d, %d bytes",
				k, p.count, p.capacity(), got, capacity, want)
		}
	}
	if p := h.tbl.pageFor(0); p.count != pageSize || len(p.more) != 14 || h.tbl.liveStates() != pageSize {
		t.Fatalf("the page holds %d states (%d live) in %d chunks, want %d in 14", p.count, h.tbl.liveStates(), len(p.more), pageSize)
	}
}
