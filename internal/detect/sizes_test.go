package detect

import (
	"math/bits"
	"runtime"
	"runtime/debug"
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
	// state: writer, the reader list's first-element pointer and its two
	// 32-bit bounds (ReadersLR's pairs too), and one word of four 16-bit
	// counts and links: 32 bytes on 64-bit platforms, 24 on 32-bit ones.
	if want := int(ptr + ptr + 4 + 4 + 8); stateBytes != want || ptr == 8 && stateBytes != 32 {
		t.Errorf("state is %d bytes, its fields add up to %d; 32 on 64-bit platforms", stateBytes, want)
	}
	// page: mu, num, next, the index's pointer, the first two states
	// inline, the chunk pointers' first-element pointer, the racy set's
	// pointer, and the state count, the free list's head and the chunk
	// count, padded to the page's alignment: 120 bytes in the 128-byte size
	// class on 64-bit platforms, 88 in the 96-byte one on 32-bit ones.
	align := unsafe.Alignof(page{})
	if want := int((unsafe.Sizeof(sync.Mutex{}) + 8 + ptr + ptr + 2*unsafe.Sizeof(state{}) + ptr + ptr + 2 + 2 + 1 + align - 1) / align * align); pageBytes != want {
		t.Errorf("page is %d bytes, its fields add up to %d", pageBytes, want)
	}
	// The index: a byte a slot, no pointers, so no malloc header on
	// either platform. A page that owns one costs the header and the
	// index, 384 bytes on 64-bit platforms and 352 on 32-bit ones.
	if indexBytes != pageSize || indexHeap != pageSize {
		t.Errorf("an index is %d bytes in a %d-byte slot, want %d in %d", indexBytes, indexHeap, pageSize, pageSize)
	}
	if want := map[uintptr][2]int{8: {120, 128}, 4: {88, 96}}[ptr]; pageBytes != want[0] || pageHeap != want[1] {
		t.Errorf("page is %d bytes in a %d-byte slot, want %d in %d", pageBytes, pageHeap, want[0], want[1])
	}
	if owned, want := pageHeap+indexHeap, map[uintptr]int{8: 384, 4: 352}[ptr]; owned != want {
		t.Errorf("a page with its own index takes %d bytes, want %d", owned, want)
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
	policy    ReaderPolicy
	pages     int  // pages the pattern fills
	shared    bool // whether they keep sharing the zero index
	chunks    int  // chunks of states each page allocates
	lists     int  // reader lists each page keeps
	readers   int  // strands each list holds
	limit     int  // MemBytes per location on 64-bit platforms
}

// bound is tc's MemBytes per location derived from the pointer size: the
// top array, a directory block a page (at most the 64 there are), and each
// page with its own index unless it shares the zero one, its chunks, its
// chunk pointers and its reader lists, each at what the heap gives it. On
// 64-bit platforms it is tc.limit.
func (tc memPattern) bound() int {
	const ptr = int(unsafe.Sizeof(uintptr(0)))
	st := 2*ptr + 16 // a state
	page := heapBytes((8 + 8 + 4*ptr + 2*st + 5 + ptr - 1) / ptr * ptr)
	if !tc.shared {
		page += sizeClass(pageSize) // a byte a slot, no pointers
	}
	for c := range tc.chunks {
		page += heapBytes(st << (c / 2))
	}
	// The chunk pointers' array doubles from one; the lists grow by append.
	if tc.chunks > 0 {
		page += heapBytes(ptr << bits.Len(uint(tc.chunks-1)))
	}
	var list []*sched.Strand
	for range tc.readers {
		list = append(list, nil)
	}
	page += tc.lists * ptr * cap(list)
	blocks := min(tc.pages, 1<<topBits)
	return ((1<<topBits)*ptr + blocks*heapBytes((1<<blockBits)*ptr) + tc.pages*page) / tc.locations
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
	// A page of 256 slots is one state, all its slots written and read
	// whole, so it never needs an index of its own: 128 for the page with
	// its two inline states, 8 for one reader; and at most 2 for the
	// directory. (Per-slot records cost 66 / 122 / 1144 on these three
	// rows; with an index a page, 3 here.)
	{"dense stride 1", 1 << 14, writeThenRead(1), ReadersAll, 64, true, 0, 1, 1, 2},
	// 32 locations to a page, two states: the page's own index maps the
	// written slots to one and the rest to the untouched one.
	{"pointer-keyed stride 8 (ShadowAddr)", 1 << 14, writeThenRead(8), ReadersAll, 512, false, 0, 1, 1, 14},
	// As in racy-small: the top array and the one directory block the page
	// hashes into (512 B each), the page with its index, its states and one
	// reader, over 32 locations. (With the whole 32 KiB directory: 1048.)
	{"one 32-address page", 32, writeThenRead(1), ReadersAll, 1, false, 0, 1, 1, 44},
	// A state (32), a reader (8) and an index byte per slot, 5 for the page
	// header, its chunks' malloc headers and size-class rounding (a 32-state
	// chunk takes 1,152 bytes, a 64-state one 2,304), its chunk pointers and
	// the directory: per-slot records cost 66 here. The chunks must end at
	// the 256 states a page can use, not where append's doubling would
	// leave a table.
	{"nothing shared", 1 << 14, nothingShared(1), ReadersAll, 64, false, 14, pageSize, 1, 46},
	// Under ReadersLR the three readers are three futures' pairs: a list of
	// six strands, at append's capacity of eight, 64 bytes a state.
	{"nothing shared, three futures (ReadersLR)", 1 << 14, nothingShared(3), ReadersLR, 64, false, 14, pageSize, 6, 102},
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
// and fails the next two. The limits follow from the pointer size (bound);
// the 64-bit ones are pinned.
func TestHistoryMemPerLocation(t *testing.T) {
	for _, tc := range memPatterns {
		limit := tc.bound()
		if unsafe.Sizeof(uintptr(0)) == 8 && limit != tc.limit {
			t.Errorf("%s: the derived limit is %d bytes per location, %d on 64-bit platforms", tc.name, limit, tc.limit)
		}
		h := newMemHistory(tc)
		tc.fill(h, tc.locations)
		if h.RaceCount() != 0 {
			t.Fatalf("%s: serial strands raced", tc.name)
		}
		got := h.MemBytes() / tc.locations
		t.Logf("%s: %d bytes per location, limit %d", tc.name, got, limit)
		if got > limit {
			t.Errorf("%s: %d bytes per location, limit %d", tc.name, got, limit)
		}
	}
}

// TestMemBytesTracksHeap holds the model against the allocator: what
// MemBytes reports for a populated history is within 3% of what building
// it added to the live heap. detector_mem_mb, which the
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
		if model < grew*97/100 || model > grew*103/100 {
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
// capacity (2, 3, 4, 6, 8, 12, …) of 32-byte states (24 on 32-bit
// platforms), inline or in chunks, with the chunk pointers beside them and
// the malloc headers of the chunks past 8×ptr pointer words — no table to
// copy, no spare but the last chunk's and the size classes'.
func TestStatesNeverMove(t *testing.T) {
	const ptr = int(unsafe.Sizeof(uintptr(0)))
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
			readers += int(st.rc)
		})
		// A chunk of n states takes heapBytes(n×stateBytes): past 8×ptr
		// pointer words it carries Go's 8-byte malloc header and takes the
		// next size class. On 64-bit platforms that is a chunk of 32 states
		// (1,024 bytes), the one past 64 and the one past 96, taking 1,152,
		// and a chunk of 64 taking 2,304; on 32-bit ones every chunk of 8
		// states and more.
		headers, chunks := 0, 0
		for room := 2; room < capacity; chunks++ {
			n := 1 << (chunks / 2)
			headers += heapBytes(n*stateBytes) - n*stateBytes
			room += n
		}
		// The chunk pointers' array doubles from one pointer.
		pointers := 0
		if chunks > 0 {
			pointers = heapBytes(ptr << bits.Len(uint(chunks-1)))
		}
		pinned := 0
		for _, c := range []struct{ past, extra int }{{64, 128}, {96, 128}, {128, 256}, {192, 256}} {
			if capacity > c.past {
				pinned += c.extra
			}
		}
		if ptr == 8 && (headers != pinned || stateBytes != 32) {
			t.Fatalf("step %d: the chunks carry %d bytes of headers, %d on 64-bit platforms", k, headers, pinned)
		}
		// The first write splits the page's one state, which gives the page
		// its own index.
		want := topBytes + blockHeap + pageHeap + indexHeap + (capacity-2)*stateBytes + headers + pointers + ptr*readers
		if got := h.MemBytes(); got != want || p.capacity() != capacity || int(p.chunks) != chunks {
			t.Fatalf("step %d: %d states in room for %d, MemBytes %d; want room for %d, %d bytes",
				k, p.count, p.capacity(), got, capacity, want)
		}
	}
	if p := h.tbl.pageFor(0); p.count != pageSize || p.chunks != 14 || h.tbl.liveStates() != pageSize {
		t.Fatalf("the page holds %d states (%d live) in %d chunks, want %d in 14", p.count, h.tbl.liveStates(), p.chunks, pageSize)
	}
}

// TestChunkHeapSizes holds the chunk sizes MemBytes counts (heapBytes)
// against the allocator: each chunk size, allocated a few hundred times,
// adds what heapBytes says to the bytes allocated. On 64-bit platforms
// chunks of up to 16 states fill their size class exactly, and the two
// past 512 bytes carry the malloc header into the next one: 1,152 bytes
// for 32 states and 2,304 for 64.
func TestChunkHeapSizes(t *testing.T) {
	const n = 256
	chunks := make([]*state, n)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection's own allocations would count
	for states := 1; states <= 64; states *= 2 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range chunks {
			chunks[i] = unsafe.SliceData(make([]state, states))
		}
		runtime.ReadMemStats(&after)
		size := states * stateBytes
		got, want := int(after.TotalAlloc-before.TotalAlloc)/n, heapBytes(size)
		t.Logf("a chunk of %d states, %d bytes, takes %d", states, size, got)
		if got != want {
			t.Errorf("a chunk of %d states takes %d bytes of heap, MemBytes counts %d", states, got, want)
		}
		pin := size
		if states >= 32 {
			pin = map[int]int{32: 1152, 64: 2304}[states]
		}
		if unsafe.Sizeof(uintptr(0)) == 8 && want != pin {
			t.Errorf("a chunk of %d states counts %d bytes, want %d on 64-bit platforms", states, want, pin)
		}
	}
	runtime.KeepAlive(chunks)
}
