package detect

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"sforder/internal/sched"
)

// table is the access history's shadow memory, the paper's layout (§4): a
// two-level table that acts like a direct-mapped cache. The first level
// is a directory indexed by a hash of the page number; the second level
// is a page of location slots indexed directly by the address's low bits.
// Each page carries one lock, so a lock covers a contiguous subset of the
// history — the paper's fine-grained-locking granularity, and the unit the
// batched fast path flushes at. Directory collisions chain pages (the
// paper can evict like a real cache; a race detector that must not miss
// races cannot, so we chain).
//
// The directory is sparse: the hash's top bits pick one of 64 top slots,
// each pointing at a block of chain heads that is allocated the first
// time a page hashes into it, so a run pays for the directory it touches
// — 1 KiB for a program on one page, the whole 32 KiB only once pages
// land in every block. A block is published by CAS (a loser adopts the
// winner's) and is never freed or moved, which is why the directory
// needs no resize: the hash and its chains are the same at any size.
//
// Directory slots are atomic pointers with CAS insertion at the chain
// head, so page lookup — once per flushed batch, or per access on the
// locked path — is lock-free; only a losing CAS (two workers creating the
// same page or block at once) retries.
// A page's num and next fields are immutable once the page is published,
// so chain walks need no synchronization beyond the slot load.
//
// A slot does not own its history: it holds a one-byte index into the
// page's table of states, and slots whose history is identical — same last
// writer, same readers — point at the same state. The paper's programs
// touch tile rows, so a page of 256 slots holds a handful of states, and
// Algorithm 1 runs once per state a flush touches instead of once per
// slot (History.applyReads, History.applyWrites). A state is a value:
// which slots share it is decided by equality of history alone, it is
// updated in place only when every slot pointing at it takes the update,
// and copied first otherwise (DESIGN.md §4).
type table struct {
	top [1 << topBits]atomic.Pointer[dirBlock]
}

// dirBlock is one block of the directory: the chain heads of the pages
// whose hash starts with its top slot's bits.
type dirBlock [1 << blockBits]atomic.Pointer[page]

const (
	dirBits   = 12                // 4096 chain heads
	topBits   = 6                 // 64 top slots
	blockBits = dirBits - topBits // 64 chain heads a block
	pageBits  = PageBits          // 256 locations per page
	pageSize  = 1 << pageBits
	pageMask  = pageSize - 1
)

type page struct {
	mu   sync.Mutex
	num  uint64 // addr >> pageBits
	next *page  // directory-collision chain; immutable after publication
	// Guarded by mu: idx maps a slot to its state, a byte a slot and
	// eight to a word (stateOf). A fresh page shares zeroIndex, every
	// slot at state 0, the history of an untouched location, and gets an
	// index of its own when a slot first moves to another state (own).
	// The states are first, inline, then the chunks of more, in order
	// (at): more points at the first of the chunks' pointers, in an array
	// whose length is the power of two at or above chunks. count is how
	// many newState has handed out. racy is the set of racy slots, made at
	// the first report. free heads the list of dead states, chained by
	// link.
	idx    *slotIndex
	first  [2]state
	more   **state
	racy   *SlotSet
	count  uint16
	free   uint16
	chunks uint8
}

// slotIndex is a page's slot-to-state map.
type slotIndex [pageSize / 8]uint64

// zeroIndex is the index of every page whose slots all still point at
// state 0. It is never written.
var zeroIndex slotIndex

// own gives p an index of its own, a copy of the shared zeroIndex, before
// a slot's state changes; the caller holds p.mu.
func (p *page) own() {
	if p.idx == &zeroIndex {
		p.idx = new(slotIndex)
	}
}

// state is the access-history metadata of every slot of a page pointing at
// it, 32 bytes, so a chunk of up to 16 states fills its size class. Every
// field is read and written only under the page lock.
type state struct {
	writer *sched.Strand // last writer
	// The retained readers, a list kept as its first element's pointer,
	// its length and its capacity (readers, setReaders), eight bytes less
	// than a slice header. Under ReadersAll every reader since the
	// write, in order, so the most recent one is last; under ReadersLR
	// flat (leftmost, rightmost) pairs, one a future, found by a scan on
	// Fut.ID (History.lrStep).
	rp     **sched.Strand
	rn, rc uint32
	n      uint16 // slots pointing here; 0 = dead, on the free list
	// Scratch of one apply, zero (noState for to) outside it: how many of
	// the slots being applied point here, the next state the apply
	// touched (or the next dead one), and the copy those slots move to.
	hit, link, to uint16
}

// readers returns st's reader list.
func (st *state) readers() []*sched.Strand { return unsafe.Slice(st.rp, st.rc)[:st.rn] }

// setReaders makes l st's reader list.
func (st *state) setReaders(l []*sched.Strand) {
	st.rp, st.rn, st.rc = unsafe.SliceData(l), uint32(len(l)), uint32(cap(l))
}

// noState ends a list of states. A page has at most pageSize of them —
// a live state owns a slot — so an index fits idx's byte.
const noState = 0xffff

// dirSlot is page pageNum's chain head: its top bits pick the directory
// block, the rest the head within it.
func dirSlot(pageNum uint64) int {
	return int((pageNum * 0x9e3779b97f4a7c15) >> (64 - dirBits))
}

// find walks the collision chain from p for the page numbered num.
func (p *page) find(num uint64) *page {
	for ; p != nil; p = p.next {
		if p.num == num {
			return p
		}
	}
	return nil
}

// pageFor finds or creates the page numbered num, lock-free: find its
// directory block (creating it if need be), walk the chain, and if the
// page is missing CAS a new one in at the head. A lost CAS means another
// worker changed the head — rewalk (the page may now exist) and retry.
func (t *table) pageFor(num uint64) *page {
	h := dirSlot(num)
	b := t.top[h>>blockBits].Load()
	if b == nil {
		b = t.newBlock(h >> blockBits)
	}
	sp := &b[h&(1<<blockBits-1)]
	for {
		head := sp.Load()
		if p := head.find(num); p != nil {
			return p
		}
		np := &page{num: num, next: head, idx: &zeroIndex, count: 1, free: noState}
		np.first = [2]state{{n: pageSize, to: noState}, {to: noState}}
		if sp.CompareAndSwap(head, np) {
			return np
		}
	}
}

// newBlock publishes an empty directory block in top slot i, or adopts
// the one another worker published first.
func (t *table) newBlock(i int) *dirBlock {
	b := new(dirBlock)
	if t.top[i].CompareAndSwap(nil, b) {
		return b
	}
	return t.top[i].Load()
}

// A page's states never move. The first two are inline in the page; the
// rest are in chunks of more, of 1, 1, 2, 2, 4, 4, … 64 and 64 states, so
// that the page holds 2, 3, 4, 6, 8, 12, … 192 and 256 of them: a chunk
// adds half the largest power of two not above its first index, so at
// most a third of what a page holds is spare, and the last chunk ends at
// exactly pageSize. A chunk is kept as its first element's pointer, as
// bitset.RunSet keeps its window, and so are the chunk pointers, which at
// indexes directly, so that it stays inlinable.

// at returns state i of p.
func (p *page) at(i uint16) *state {
	if i < 2 {
		return &p.first[i]
	}
	// i is in [2<<b, 4<<b): chunk 2b of more if i < 3<<b, else 2b+1.
	b := uint(bits.Len16(i)) - 2
	c := *(**state)(unsafe.Add(unsafe.Pointer(p.more), uintptr(2*b+uint(i>>b)-2)*unsafe.Sizeof(*p.more)))
	return (*state)(unsafe.Add(unsafe.Pointer(c), uintptr(i&(1<<b-1))*unsafe.Sizeof(state{})))
}

// capacity is how many states p holds: two inline and the chunks of more.
func (p *page) capacity() int {
	c := int(p.chunks)
	return (2 + c&1) << (c / 2)
}

// forEachState visits every state newState has handed out, live or dead.
func (p *page) forEachState(fn func(i uint16, st *state)) {
	for i := range p.count {
		fn(i, p.at(i))
	}
}

// newState returns the index of an empty state with no slots yet, a dead
// one if there is any, else the next one, adding a chunk to more if p
// holds no more. The caller gives the state slots that other states keep
// fewer of, so every state p holds owns a slot when it adds a chunk.
func (p *page) newState() uint16 {
	if i := p.free; i != noState {
		p.free = p.at(i).link
		return i
	}
	i := p.count
	if int(i) == p.capacity() {
		c := int(p.chunks)
		chunk := make([]state, 1<<(c/2))
		for k := range chunk {
			chunk[k].to = noState
		}
		if c&(c-1) == 0 { // 0, 1, 2, 4 or 8 chunk pointers fill their array: double it
			more := make([]*state, max(1, 2*c))
			copy(more, unsafe.Slice(p.more, c))
			p.more = unsafe.SliceData(more)
		}
		unsafe.Slice(p.more, c+1)[c] = unsafe.SliceData(chunk)
		p.chunks++
	}
	p.count++
	return i
}

// release puts state i, which no slot points at any more, on the free
// list. Its reader list keeps its backing array for the next owner.
func (p *page) release(i uint16) {
	st := p.at(i)
	*st = state{rp: st.rp, rc: st.rc, to: noState, link: p.free}
	p.free = i
}

// The slot indexes are read and written a word at a time: idx packs eight
// slots' state indexes into a word, byte b of idx[k] naming slot 8k+b's
// state, so a byte of a SlotSet word (eight slots) meets one word of idx
// and a whole SlotSet word (64 slots) eight.
const ones = 0x0101010101010101 // times a byte: that byte in every byte of a word

// stateOf returns the index of the state slot points at.
func (p *page) stateOf(slot int) uint16 {
	return uint16(uint8(p.idx[slot>>3] >> (slot & 7 * 8)))
}

// byteMask[m] widens the eight bits of m to the eight bytes of a word:
// byte b is 0xff if bit b of m is set and 0 if it is clear.
var byteMask = func() (t [256]uint64) {
	for m := range t {
		for b := range 8 {
			if m>>b&1 != 0 {
				t[m] |= 0xff << (8 * b)
			}
		}
	}
	return t
}()

// sameBytes returns the bytes of x equal to i, bit b for byte b. Byte b of
// d is zero where x is i; adding 0x7f to its low seven bits sets its top
// bit unless it is, carrying into no other byte; the multiply gathers them.
func sameBytes(x, i uint64) uint64 {
	const low7 = 0x7f7f7f7f7f7f7f7f
	d := x ^ i*ones
	z := ^(d&low7 + low7 | d) &^ low7
	return (z >> 7) * 0x0102040810204080 >> 56
}

// hits returns the slots of SlotSet word w, whose set bits are word, that
// point at state i: a byte of them, eight slots, at a time.
func (p *page) hits(w int, word uint64, i uint16) (hit uint64) {
	for word != 0 {
		k, m, rest := nextByte(word)
		word = rest
		hit |= (m & sameBytes(p.idx[w*8+k], uint64(i))) << (k * 8 & 63)
	}
	return hit
}

// nextByte splits the lowest non-zero byte off word, a non-zero SlotSet
// word: its position k, its bits m — slots 8k to 8k+7 of the word's 64,
// the ones idx word 8w+k indexes — and the rest of the word.
func nextByte(word uint64) (k int, m, rest uint64) {
	k = bits.TrailingZeros64(word) >> 3
	sh := k * 8 & 63
	return k, word >> sh & 0xff, word &^ (0xff << sh)
}

// uniform reports whether the slots of m's bits in idx word x, two or
// more, all point at one state, and which. A lone slot, the common byte of
// a sparse set, takes the per-slot walk instead: it has nothing to share.
func uniform(x, m uint64) (i uint64, ok bool) {
	if m&(m-1) == 0 {
		return 0, false
	}
	i = x >> (bits.TrailingZeros64(m) * 8 & 63) & 0xff
	return i, (x^i*ones)&byteMask[m] == 0
}

// grouping is group's cursor: the chain built so far, and the state of the
// run of slots being counted, which is added to its state's hit count when
// the run ends. Neighbouring slots mostly share their state, so a run is
// counted in a register and a state touched once per run.
type grouping struct {
	head, tail, cur, run uint16
}

// add counts n more slots of p's state i. The cursor is a value, so that
// it stays in registers.
func (g grouping) add(p *page, i, n uint16) grouping {
	if i != g.cur {
		g = g.end(p)
		g.cur, g.run = i, 0
	}
	g.run += n
	return g
}

// end adds the run to its state, chaining the state if the run is its
// first.
func (g grouping) end(p *page) grouping {
	if g.run == 0 {
		return g
	}
	st := p.at(g.cur)
	if st.hit == 0 {
		st.link = noState
		if g.tail == noState {
			g.head = g.cur
		} else {
			p.at(g.tail).link = g.cur
		}
		g.tail = g.cur
	}
	st.hit += g.run
	return g
}

// group counts, for every state, the slots of set pointing at it (hit) and
// chains the states it found through link, in order of their first slot.
// It returns the head of the chain. The caller holds p.mu and zeroes the
// hit counts again. A set word whose 64 slots all point at one state is
// one step, and so is a byte of it whose slots do.
func (p *page) group(set *SlotSet) (head uint16) {
	g := grouping{head: noState, tail: noState, cur: noState}
	for w, word := range set {
		if word == ^uint64(0) {
			if i, ok := p.uniform64(w); ok {
				g = g.add(p, uint16(i), 64)
				continue
			}
		}
		for word != 0 {
			k, m, rest := nextByte(word)
			word = rest
			x := p.idx[w*8+k]
			if i, ok := uniform(x, m); ok {
				g = g.add(p, uint16(i), uint16(bits.OnesCount64(m)))
				continue
			}
			for ; m != 0; m &= m - 1 {
				g = g.add(p, uint16(x>>(bits.TrailingZeros64(m)*8&63)&0xff), 1)
			}
		}
	}
	return g.end(p).head
}

// uniform64 reports whether the 64 slots of SlotSet word w all point at
// one state, and which.
func (p *page) uniform64(w int) (i uint64, ok bool) {
	ws := (*[8]uint64)(p.idx[w*8:])
	x := ws[0]
	i = x & 0xff
	diff := x ^ i*ones
	for _, y := range ws[1:] {
		diff |= y ^ x
	}
	return i, diff == 0
}

// split moves hit of st's slots to a copy of it, which it returns;
// the slots' idx entries follow once every state of the apply is done
// (p.move). The copy's readers have room for room more, the reader about
// to join.
func (p *page) split(st *state, hit uint16, room int) *state {
	j := p.newState()
	cp := p.at(j)
	st.n -= hit
	st.to = j
	cp.writer, cp.n = st.writer, hit
	if rs := st.readers(); len(rs) > 0 {
		cp.setReaders(append(slices.Grow(cp.readers(), len(rs)+room), rs...))
	}
	return cp
}

// move repoints every slot of set whose state was split at the copy, and
// clears the marks on the chain from head. The eight slots of a byte of
// set that point at one state move with one masked store.
func (p *page) move(set *SlotSet, head uint16) {
	p.own()
	for w, word := range set {
		for word != 0 {
			k, m, rest := nextByte(word)
			word = rest
			x := &p.idx[w*8+k]
			if i, ok := uniform(*x, m); ok {
				if to := p.at(uint16(i)).to; to != noState {
					bm := byteMask[m]
					*x = *x&^bm | uint64(to)*ones&bm
				}
				continue
			}
			for ; m != 0; m &= m - 1 {
				sh := bits.TrailingZeros64(m) * 8 & 63
				if to := p.at(uint16(*x >> sh & 0xff)).to; to != noState {
					*x = *x&^(0xff<<sh) | uint64(to)<<sh
				}
			}
		}
	}
	for i := head; i != noState; {
		st := p.at(i)
		st.to, i = noState, st.link
	}
}

// point repoints every slot of set at state to: a whole set word is eight
// stores, a byte of it one masked store.
func (p *page) point(set *SlotSet, to uint16) {
	p.own()
	b := uint64(to) * ones
	for w, word := range set {
		if word == ^uint64(0) {
			*(*[8]uint64)(p.idx[w*8:]) = [8]uint64{b, b, b, b, b, b, b, b}
			continue
		}
		for word != 0 {
			k, m, rest := nextByte(word)
			word = rest
			bm := byteMask[m]
			p.idx[w*8+k] = p.idx[w*8+k]&^bm | b&bm
		}
	}
}

// forEachBlock visits every allocated directory block.
func (t *table) forEachBlock(fn func(*dirBlock)) {
	for i := range t.top {
		if b := t.top[i].Load(); b != nil {
			fn(b)
		}
	}
}

// forEachPage visits every page under its lock; used by the accounting
// methods, not the hot path.
func (t *table) forEachPage(fn func(*page)) {
	t.forEachBlock(func(b *dirBlock) {
		for i := range b {
			for p := b[i].Load(); p != nil; p = p.next {
				p.mu.Lock()
				fn(p)
				p.mu.Unlock()
			}
		}
	})
}

// The accounting sizes are the real struct sizes, so MemBytes cannot
// drift as the structs evolve (sizes_test.go pins the expected values).
const (
	topBytes   = int(unsafe.Sizeof(table{}))
	blockBytes = int(unsafe.Sizeof(dirBlock{}))
	pageBytes  = int(unsafe.Sizeof(page{}))
	indexBytes = int(unsafe.Sizeof(slotIndex{}))
	racyBytes  = int(unsafe.Sizeof(SlotSet{}))
	stateBytes = int(unsafe.Sizeof(state{}))
	ptrBytes   = int(unsafe.Sizeof(uintptr(0)))
)

// sizeClass is what the heap gives an object of size bytes that holds no
// pointers: size rounded up to a size class, the capacity append gives as
// many bytes.
func sizeClass(size int) int { return cap(slices.Grow([]byte(nil), size)) }

// heapBytes is what the heap gives an object of size bytes that holds
// pointers: past 8×ptrBytes pointer words (512 bytes on 64-bit platforms,
// 128 on 32-bit ones) Go puts an 8-byte malloc header in front of it
// before it rounds to a size class. sizes_test.go holds the chunks' sizes
// against the allocator.
func heapBytes(size int) int {
	if size > 8*ptrBytes*ptrBytes {
		size += 8
	}
	return sizeClass(size)
}

// What the heap gives a directory block, a page, a page's own index and
// the first c chunks of a page with their pointers' array (moreBytes[c]; a
// page has at most 2×(pageBits-1) = 14). A block fills its size class on
// 64-bit platforms and carries a malloc header on 32-bit ones; a page
// takes 128 bytes and 96, and with its own index 384 and 352.
var (
	blockHeap = heapBytes(blockBytes)
	pageHeap  = heapBytes(pageBytes)
	indexHeap = sizeClass(indexBytes)
	moreBytes = func() (t [2*(pageBits-1) + 1]int) {
		for c := range len(t) - 1 {
			t[c+1] = t[c] + heapBytes(stateBytes<<(c/2))
		}
		for c := 1; c < len(t); c++ {
			t[c] += heapBytes(ptrBytes << bits.Len(uint(c-1)))
		}
		return t
	}()
)

// memBytes is the table's heap footprint: the top array, every allocated
// directory block, every page with its inline states, its own index if it
// has one and its racy set, its chunks of states and their pointers' array,
// all at their heap size, and the reader lists of live and dead states at
// capacity — under either policy every retained reader is in them.
func (t *table) memBytes() int {
	total := topBytes
	t.forEachBlock(func(*dirBlock) { total += blockHeap })
	t.forEachPage(func(p *page) {
		total += pageHeap + moreBytes[p.chunks]
		if p.idx != &zeroIndex {
			total += indexHeap
		}
		if p.racy != nil {
			total += racyBytes
		}
		p.forEachState(func(_ uint16, st *state) { total += ptrBytes * int(st.rc) })
	})
	return total
}

// liveStates counts the states slots point at.
func (t *table) liveStates() (n int) {
	t.forEachPage(func(p *page) {
		p.forEachState(func(_ uint16, st *state) {
			if st.n > 0 {
				n++
			}
		})
	})
	return n
}
