package detect_test

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"sforder/internal/detect"
	"sforder/internal/sched"
)

// newParallelHistory returns a locked-path history in which no two
// strands are ordered, so every conflicting pair is a race.
func newParallelHistory() *detect.History {
	return detect.NewHistory(detect.Options{Reach: &stubReach{}})
}

func TestTableDistinguishesPageNeighbours(t *testing.T) {
	// Addresses within one page must not alias each other.
	ss := fakeStrands(2)
	h := newParallelHistory()
	h.Write(ss[0], 256)
	h.Write(ss[1], 257) // same page, different slot: no conflict
	if h.RaceCount() != 0 {
		t.Fatalf("page neighbours aliased: %v", h.Races())
	}
}

func TestTableDistinguishesDirectoryCollisions(t *testing.T) {
	// Two addresses whose pages collide in the directory must chain,
	// not alias. Same in-page offset, page numbers far apart.
	ss := fakeStrands(2)
	h := newParallelHistory()
	// Write a dense set of same-offset addresses across many pages; with
	// 4096 directory slots and 8192 pages, collisions are guaranteed.
	for p := uint64(0); p < 8192; p++ {
		h.Write(ss[0], p<<8|5)
	}
	if h.RaceCount() != 0 {
		t.Fatal("distinct addresses reported as conflicting")
	}
	// Re-write everything from a parallel strand: exactly one race per
	// address if no aliasing or loss occurred.
	for p := uint64(0); p < 8192; p++ {
		h.Write(ss[1], p<<8|5)
	}
	if h.RaceCount() != 8192 {
		t.Fatalf("RaceCount = %d, want 8192 (one per address)", h.RaceCount())
	}
}

func TestTableMemBytesGrows(t *testing.T) {
	ss := fakeStrands(1)
	h := newParallelHistory()
	before := h.MemBytes()
	for a := uint64(0); a < 10_000; a++ {
		h.Write(ss[0], a)
	}
	if h.MemBytes() <= before {
		t.Error("MemBytes must grow")
	}
}

// TestTableConcurrentHammer stresses page creation and slot access
// from several goroutines (race-detector clean).
func TestTableConcurrentHammer(t *testing.T) {
	h := newParallelHistory()
	fut := &sched.FutureTask{ID: 0}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			s := &sched.Strand{ID: id, Fut: fut}
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < 5000; i++ {
				addr := uint64(rng.Intn(1 << 16))
				if i%3 == 0 {
					h.Write(s, addr)
				} else {
					h.Read(s, addr)
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	// Every access pair was potentially parallel (stub reach: nothing
	// precedes), so races are expected; the point is no crash/corruption.
	if h.MemBytes() == 0 {
		t.Error("table should be populated")
	}
}

// TestTableConcurrentPageCreation hammers the lock-free directory's
// CAS insertion: many goroutines force page creation across colliding
// directory slots; every access must land on a correct page (validated
// by the race count being exactly one per address afterwards).
func TestTableConcurrentPageCreation(t *testing.T) {
	h := newParallelHistory()
	fut := &sched.FutureTask{ID: 0}
	const goroutines = 8
	const pages = 2048
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			s := &sched.Strand{ID: 1 + id, Fut: fut}
			for p := uint64(0); p < pages; p++ {
				h.Read(s, p<<8|id) // distinct slot per goroutine: no races
			}
		}(uint64(g))
	}
	wg.Wait()
	if h.RaceCount() != 0 {
		t.Fatalf("distinct addresses reported racy: %d", h.RaceCount())
	}
	// Now one writer over every goroutine's addresses: if any page or
	// slot was lost during concurrent creation, a race goes missing.
	w := &sched.Strand{ID: 0, Fut: fut}
	for p := uint64(0); p < pages; p++ {
		for id := uint64(0); id < goroutines; id++ {
			h.Write(w, p<<8|id)
		}
	}
	if want := uint64(pages * goroutines); h.RaceCount() != want {
		t.Fatalf("RaceCount = %d, want %d (one per address)", h.RaceCount(), want)
	}
}

// TestTableConcurrentBlockCreation hammers the directory's on-demand
// blocks: on a fresh history, goroutines first-touch pages in every block
// at once, each in its own order but all starting on the same page, so
// they race to publish the same blocks and chain heads. No page may be
// lost — a writer afterwards finds one race per address — and every block
// must be counted once, however many goroutines tried to create it.
func TestTableConcurrentBlockCreation(t *testing.T) {
	const goroutines = 8
	const perBlock = 4
	// perBlock pages in every block; 256 of them, so that an odd
	// multiplier permutes their indices.
	var pages []uint64
	inBlock := make([]int, detect.DirBlocks)
	for p := uint64(0); len(pages) < perBlock*detect.DirBlocks; p++ {
		if b := detect.DirBlockOf(p); inBlock[b] < perBlock {
			inBlock[b]++
			pages = append(pages, p)
		}
	}
	ptr := int(unsafe.Sizeof(uintptr(0)))
	// A page read on eight slots by eight parallel strands holds nine
	// states: two inline and five chunks of 1, 1, 2, 2 and 4 — room for
	// 12 — whose pointers take append's capacity of eight. Each of the
	// eight readers has a one-reader slice, and the write that races on
	// every one of the slots gives the page a racy set.
	pageModel := detect.PageBytes + (12-2)*detect.StateBytes + 8*ptr + goroutines*ptr + detect.RacyBytes
	fut := &sched.FutureTask{ID: 0}
	for round := 0; round < 10; round++ {
		h := newParallelHistory()
		if h.MemBytes() != detect.TopBytes {
			t.Fatalf("an empty history counts %d bytes, want its top array's %d", h.MemBytes(), detect.TopBytes)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(id uint64) {
				defer wg.Done()
				s := &sched.Strand{ID: 1 + id, Fut: fut}
				<-start
				for i := range pages {
					h.Read(s, pages[i*int(2*id+1)%len(pages)]<<8|id) // distinct slot per goroutine: no races
				}
			}(uint64(g))
		}
		close(start)
		wg.Wait()
		if h.RaceCount() != 0 {
			t.Fatalf("round %d: distinct addresses reported racy: %d", round, h.RaceCount())
		}
		w := &sched.Strand{ID: 0, Fut: fut}
		for _, p := range pages {
			for id := uint64(0); id < goroutines; id++ {
				h.Write(w, p<<8|id)
			}
		}
		if want := uint64(len(pages) * goroutines); h.RaceCount() != want {
			t.Fatalf("round %d: RaceCount = %d, want %d (one per address)", round, h.RaceCount(), want)
		}
		want := detect.TopBytes + detect.DirBlocks*detect.BlockBytes + len(pages)*pageModel
		if got := h.MemBytes(); got != want {
			t.Fatalf("round %d: MemBytes = %d, want %d: the top array, %d blocks and %d pages",
				round, got, want, detect.DirBlocks, len(pages))
		}
	}

	// One page, one block: a written page holds two states, both inline.
	h := newParallelHistory()
	h.Write(&sched.Strand{ID: 0, Fut: fut}, 5)
	if got, want := h.MemBytes(), detect.TopBytes+detect.BlockBytes+detect.PageBytes; got != want {
		t.Errorf("a history on one page counts %d bytes, want %d: the top array, one block and the page with its states", got, want)
	}
}
