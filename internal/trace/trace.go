// Package trace implements the sftrace capture format: a recorded
// execution of a structured-futures program, sufficient to re-run race
// detection offline (internal/replay) without re-executing the program.
//
// A capture is two interleaved streams in one file:
//
//   - Structure events — the dag-construction events a sched.Tracer
//     observes (root/spawn/create/sync/return/put/get), with strand and
//     future IDs instead of pointers. Replay feeds these through a
//     reachability substrate to rebuild the SF-dag's precedence oracle.
//   - Access events — per-strand, per-shadow-page blocks: the set of the
//     page's slots the strand read and the set it wrote, as sched drains
//     the strand's buffer, to the recorder itself (sched.PageSink) or to
//     the history, which taps them (detect.Options.Tap) — at the same
//     points either way, so a one-worker capture of a run is the same
//     bytes whatever detector is attached. Recording costs one bit per
//     kept entry until the buffer drains, and the page's non-zero bitmap
//     words then.
//
// The recorder buffers each sched lane (worker) and writes a lane to the
// file only at a hand-off — root, spawn, create, return or put, after
// which another worker can see the lane's work — past a size threshold, or
// at Close. The file order is a valid happens-before-consistent
// linearization of the run: a lane keeps call order, so a strand's
// introduction precedes its lane's events naming it, and its access blocks
// precede the event ending it (the buffer drains inside sched's strand
// close, before that event); and an event names another lane's strand or
// future — a job's strands, a sync's sinks, a get's future — only after
// the hand-off that wrote that lane. Replay relies on exactly these
// properties and nothing stronger.
//
// # Wire format
//
// Integers are unsigned varints (encoding/binary Uvarint) unless said
// otherwise. The header is:
//
//	offset 0: 8-byte magic "sftrace\n"
//	offset 8: 4-byte byte-order marker 04 03 02 01 (0x01020304 little-
//	          endian) — the fixed-width words of an access block are
//	          little-endian, and a byte-swapped capture fails loudly here
//	then:     uvarint format version (currently 2)
//	then:     uvarint PageBits, the shadow-page size the slot sets cover
//
// Events follow, each one op byte then op-specific fields; see the op
// constants. An access block is
//
//	uvarint strand, uvarint page, mask byte, words
//
// where bit w of the mask says word w of the read set is non-zero, bit
// 4+w the same of the write set, and each non-zero word follows as 8
// little-endian bytes, reads first. The mask alone gives the block's
// length, so a reader can skip a block undecoded. The stream must end with
// opEnd carrying the structure-event and access-entry counts (an entry is
// one set bit), so a truncated capture is detected instead of silently
// decoding a prefix.
package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"sforder/internal/detect"
	"sforder/internal/obsv"
	"sforder/internal/sched"
)

// Version is the sftrace format version. Load rejects any other value,
// so a stale capture written by an incompatible build fails loudly.
// Bump it whenever the wire layout or its semantics change.
const Version = 2

// words is the number of bitmap words in a slot set. The mask byte has a
// bit for each word of both sets; the constant below stops the build if
// the page size outgrows it.
const (
	words       = len(detect.SlotSet{})
	_     uint8 = 1<<(2*words) - 1
)

var (
	magic    = [8]byte{'s', 'f', 't', 'r', 'a', 'c', 'e', '\n'}
	byteMark = [4]byte{0x04, 0x03, 0x02, 0x01} // 0x01020304 little-endian
)

// Op identifies one event kind in the capture stream.
type Op uint8

const (
	OpRoot   Op = iota // U = root strand (future 0)
	OpSpawn            // U, A = child, B = cont, Placeholder
	OpCreate           // U, A = first, B = cont, Placeholder, Fut, FutParent
	OpSync             // U = k, A = sync strand, Sinks
	OpReturn           // U = sink
	OpPut              // U = sink, Fut
	OpGet              // U, A = get strand, Fut
	opAccess           // strand, page, mask, words — decoded to AccessBlock
	opEnd              // struct-event count, access-entry count
)

func (o Op) String() string {
	switch o {
	case OpRoot:
		return "root"
	case OpSpawn:
		return "spawn"
	case OpCreate:
		return "create"
	case OpSync:
		return "sync"
	case OpReturn:
		return "return"
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case opAccess:
		return "access"
	case opEnd:
		return "end"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Event is one decoded structure event. Field meaning depends on Op (see
// the op constants); unused fields are zero. Placeholder holds the join
// strand's ID plus one, with zero meaning none — strand 0 is the root
// and never a placeholder, but the +1 keeps the encoding uniform.
type Event struct {
	Op          Op
	U, A, B     uint64
	Placeholder uint64 // join strand ID + 1; 0 = none
	Fut         int
	FutParent   int
	Sinks       []uint64
}

// AccessBlock is one strand's accesses to one shadow page: the slots it
// read and the slots it wrote, a slot in both read first — what
// History.ApplyPage takes. A strand contributes one block per page it
// touched (more after an early drain, or where a tapped list needs order;
// see TapAccesses). A block is never empty.
type AccessBlock struct {
	Strand, Page  uint64
	Reads, Writes detect.SlotSet
}

// Entries returns the number of accesses in b, one per slot in each set.
func (b *AccessBlock) Entries() int {
	n := 0
	for w := range words {
		n += bits.OnesCount64(b.Reads[w]) + bits.OnesCount64(b.Writes[w])
	}
	return n
}

// Capture is a fully decoded sftrace file. Events and Blocks each
// preserve file order, and BlockAt keeps how the two interleaved: replay
// checks each block against the strand states at its place in the file.
type Capture struct {
	Events  []Event       // structure events, file order
	Blocks  []AccessBlock // access blocks, file order
	BlockAt []int         // per block, how many structure events precede it
	Strands uint64        // 1 + the largest strand ID named anywhere
	Futures int           // 1 + the largest future ID named anywhere
	Entries uint64        // total access entries across Blocks
	Bytes   int64         // encoded size consumed
}

const laneFlush = 64 << 10 // a lane, or the recorder's buffer, this large goes to the file

// lane is one sched lane's unwritten bytes, in call order, and the events
// and entries they hold; padded so two lanes never share a cache line.
type lane struct {
	buf             []byte
	events, entries uint64
	_               [24]byte
}

// Recorder writes a capture. It implements sched.Tracer (attach via
// sched.Options.Aux, so the primary tracer's lane routing is untouched and
// sched sizes the recorder's lanes) and detect.AccessTap (attach via
// detect.Options.Tap). For runs without an access history it is also a
// sched.PageSink, so sched buffers each strand's accesses by the rule it
// keeps for the history and a program can be recorded without paying for
// detection.
//
// Each call appends to the lane running the strand it names, with no lock.
// Calls from one lane never overlap, which sched guarantees. A recorder
// that sched never sized has one lane, and direct callers serialize their
// calls. Close must be called once, after the run, to write the trailer.
type Recorder struct {
	mu     sync.Mutex
	w      io.Writer
	out    []byte // flushed lanes not yet written to w, sized by flushLocked
	lanes  []lane
	err    error
	closed bool

	structEvents  uint64 // counts and bytes of the flushed lanes
	accessEntries uint64
	bytes         uint64
}

// NewRecorder starts a capture on w, writing the header immediately.
func NewRecorder(w io.Writer) *Recorder {
	r := &Recorder{w: w, lanes: make([]lane, 1)}
	l := &r.lanes[0]
	l.buf = append(l.buf, magic[:]...)
	l.buf = append(l.buf, byteMark[:]...)
	l.buf = binary.AppendUvarint(l.buf, Version)
	l.buf = binary.AppendUvarint(l.buf, detect.PageBits)
	r.flushLocked(l)
	return r
}

// SetLanes sizes the recorder to sched's lane count; sched calls it
// before OnRoot when the recorder is Options.Aux.
func (r *Recorder) SetLanes(n int) {
	for len(r.lanes) < n {
		r.lanes = append(r.lanes, lane{})
	}
}

// lane returns the buffer of the lane running s.
func (r *Recorder) lane(s *sched.Strand) *lane { return &r.lanes[s.Lane()] }

// flush writes l to the file at a hand-off (hand) or past laneFlush.
func (r *Recorder) flush(l *lane, hand bool) {
	if hand || len(l.buf) > laneFlush {
		r.mu.Lock()
		r.flushLocked(l)
		r.mu.Unlock()
	}
}

// flushLocked moves l to the recorder's buffer and resets l; the caller
// holds r.mu (or, for the constructor, exclusive access). The buffer is 4
// KiB, enough for a small capture, and laneFlush once a capture outgrows
// that; then it goes to the file whenever the next lane does not fit.
func (r *Recorder) flushLocked(l *lane) {
	r.structEvents += l.events
	r.accessEntries += l.entries
	if n := len(r.out) + len(l.buf); r.err == nil && !r.closed && n > cap(r.out) {
		if cap(r.out) >= laneFlush {
			r.writeOut()
		} else {
			size := 4 << 10
			if cap(r.out) > 0 {
				size = laneFlush
			}
			out := make([]byte, len(r.out), max(size, n))
			copy(out, r.out)
			r.out = out
		}
	}
	if r.err == nil && !r.closed {
		r.out = append(r.out, l.buf...)
		r.bytes += uint64(len(l.buf))
	}
	*l = lane{buf: l.buf[:0]}
}

// writeOut writes the recorder's buffer to the file and empties it; the
// caller has seen no error yet.
func (r *Recorder) writeOut() {
	n, err := r.w.Write(r.out)
	if err == nil && n < len(r.out) {
		err = io.ErrShortWrite
	}
	r.err, r.out = err, r.out[:0]
}

// structEvent appends one structure event to l and flushes it when hand.
func (r *Recorder) structEvent(l *lane, hand bool, op Op, fields ...uint64) {
	l.buf = append(l.buf, byte(op))
	for _, f := range fields {
		l.buf = binary.AppendUvarint(l.buf, f)
	}
	l.events++
	r.flush(l, hand)
}

func phField(placeholder *sched.Strand) uint64 {
	if placeholder == nil {
		return 0
	}
	return placeholder.ID + 1
}

// OnRoot implements sched.Tracer.
func (r *Recorder) OnRoot(root *sched.Strand) {
	r.structEvent(r.lane(root), true, OpRoot, root.ID)
}

// OnSpawn implements sched.Tracer.
func (r *Recorder) OnSpawn(u, child, cont, placeholder *sched.Strand) {
	r.structEvent(r.lane(u), true, OpSpawn, u.ID, child.ID, cont.ID, phField(placeholder))
}

// OnCreate implements sched.Tracer.
func (r *Recorder) OnCreate(u, first, cont, placeholder *sched.Strand, f *sched.FutureTask) {
	parent := uint64(0)
	if f.Parent != nil {
		parent = uint64(f.Parent.ID)
	}
	r.structEvent(r.lane(u), true, OpCreate, u.ID, first.ID, cont.ID, phField(placeholder), uint64(f.ID), parent)
}

// OnSync implements sched.Tracer.
func (r *Recorder) OnSync(k, s *sched.Strand, childSinks []*sched.Strand) {
	l := r.lane(k)
	l.buf = append(l.buf, byte(OpSync))
	l.buf = binary.AppendUvarint(l.buf, k.ID)
	l.buf = binary.AppendUvarint(l.buf, s.ID)
	l.buf = binary.AppendUvarint(l.buf, uint64(len(childSinks)))
	for _, c := range childSinks {
		l.buf = binary.AppendUvarint(l.buf, c.ID)
	}
	l.events++
	r.flush(l, false)
}

// OnReturn implements sched.Tracer.
func (r *Recorder) OnReturn(sink *sched.Strand) {
	r.structEvent(r.lane(sink), true, OpReturn, sink.ID)
}

// OnPut implements sched.Tracer.
func (r *Recorder) OnPut(sink *sched.Strand, f *sched.FutureTask) {
	r.structEvent(r.lane(sink), true, OpPut, sink.ID, uint64(f.ID))
}

// OnGet implements sched.Tracer.
func (r *Recorder) OnGet(u, g *sched.Strand, f *sched.FutureTask) {
	r.structEvent(r.lane(u), false, OpGet, u.ID, g.ID, uint64(f.ID))
}

// TapAccesses implements detect.AccessTap by folding the lists back into
// the page sets the history's strand buffer drained them from, so a
// genuine tap is one block. The sets keep no order within a slot beyond
// "read, then written", so an entry that needs one — a second read or
// write of a slot, any access to a slot already written — starts a new
// block, as does a change of page: an arbitrary list keeps its exact
// per-address order.
func (r *Recorder) TapAccesses(s *sched.Strand, addrs []uint64, kinds []detect.AccessKind) {
	if len(addrs) == 0 {
		return
	}
	var sets [2]detect.SlotSet
	page := addrs[0] >> detect.PageBits
	l := r.lane(s)
	for i, addr := range addrs {
		k := kinds[i] & 1
		w, bit := addr&(1<<detect.PageBits-1)>>6, uint64(1)<<(addr&63)
		if addr>>detect.PageBits != page || (sets[k][w]|sets[detect.AccessWrite][w])&bit != 0 {
			l.writeSets(s.ID, page, &sets[detect.AccessRead], &sets[detect.AccessWrite])
			sets, page = [2]detect.SlotSet{}, addr>>detect.PageBits
		}
		sets[k][w] |= bit
	}
	l.writeSets(s.ID, page, &sets[detect.AccessRead], &sets[detect.AccessWrite])
	r.flush(l, false)
}

// writeSets appends one page's block straight from its slot sets, which
// are not both empty: the mask, then the non-zero words.
func (l *lane) writeSets(strand, page uint64, reads, writes *detect.SlotSet) {
	l.buf = append(l.buf, byte(opAccess))
	l.buf = binary.AppendUvarint(l.buf, strand)
	l.buf = binary.AppendUvarint(l.buf, page)
	at, mask, n := len(l.buf), byte(0), 0
	l.buf = append(l.buf, 0)
	for i, set := range [2]*detect.SlotSet{reads, writes} {
		for w, word := range set {
			if word != 0 {
				mask |= 1 << (i*words + w)
				n += bits.OnesCount64(word)
				l.buf = binary.LittleEndian.AppendUint64(l.buf, word)
			}
		}
	}
	l.buf[at] = mask
	l.entries += uint64(n)
}

// Read implements sched.AccessChecker for recording without detection, by
// sched's buffer rule (sched.Keep): the capture is a detecting run's.
func (r *Recorder) Read(s *sched.Strand, addr uint64) {
	sched.Keep(s, addr, detect.AccessRead, r.ApplyPage)
}

// Write implements sched.AccessChecker; see Read.
func (r *Recorder) Write(s *sched.Strand, addr uint64) {
	sched.Keep(s, addr, detect.AccessWrite, r.ApplyPage)
}

// SkipCovered is the sched.PageSink gate, always open: sched keeps the
// recorder's accesses itself.
func (r *Recorder) SkipCovered() bool { return true }

// ApplyPage implements sched.PageSink: one drained page of s is one block.
func (r *Recorder) ApplyPage(s *sched.Strand, page uint64, reads, writes *detect.SlotSet) {
	l := r.lane(s)
	l.writeSets(s.ID, page, reads, writes)
	r.flush(l, false)
}

// StrandClose implements sched.StrandCloser: the strand's buffer drains,
// a block a page (sched.CloseBuffer).
func (r *Recorder) StrandClose(s *sched.Strand) { sched.CloseBuffer(s, r.ApplyPage) }

// Close writes the lanes, in any order (a lane's tail names only what it
// or the file introduced), then the trailer, and flushes. The capture is
// invalid without it; Load rejects trailer-less files as truncated.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return r.err
	}
	for i := range r.lanes {
		r.flushLocked(&r.lanes[i])
	}
	l := &r.lanes[0]
	l.buf = append(l.buf, byte(opEnd))
	l.buf = binary.AppendUvarint(l.buf, r.structEvents)
	l.buf = binary.AppendUvarint(l.buf, r.accessEntries)
	r.flushLocked(l)
	if r.err == nil {
		r.writeOut()
	}
	r.closed = true
	return r.err
}

// Bytes returns how many bytes the recorder has taken from its lanes so
// far: written to the file or waiting in its buffer. After Close it is the
// capture's size.
func (r *Recorder) Bytes() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// RegisterStats publishes the recorder counters (record.*) on reg. They
// count what the recorder has taken from its lanes, written to the file or
// waiting in its buffer, and are complete after Close.
func (r *Recorder) RegisterStats(reg *obsv.Registry) {
	reg.RegisterFunc("record.struct_events", func() int64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return int64(r.structEvents)
	})
	reg.RegisterFunc("record.access_entries", func() int64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return int64(r.accessEntries)
	})
	reg.RegisterFunc("record.bytes", func() int64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return int64(r.bytes)
	})
}

var (
	_ sched.Tracer       = (*Recorder)(nil)
	_ sched.PageSink     = (*Recorder)(nil)
	_ sched.StrandCloser = (*Recorder)(nil)
	_ detect.AccessTap   = (*Recorder)(nil)
)

// countingReader tracks consumed bytes under a bufio.Reader.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Load decodes a capture. Any malformation — wrong magic, byte order,
// version or page size, a truncated stream, counts that do not match the
// trailer, an access block that is empty, names a page past the address
// space or a strand no structure event declared — is an error; Load never
// returns a partially decoded capture. Strands and
// Futures are sized by the structure events alone: the access stream
// cannot inflate them (see Stream).
func Load(r io.Reader) (*Capture, error) {
	st, err := OpenStream(r)
	if err != nil {
		return nil, err
	}
	c := &Capture{}
	for {
		ev, blk, err := st.Next()
		if err == io.EOF {
			c.Strands = st.Strands()
			c.Futures = st.Futures()
			c.Entries = st.Entries()
			c.Bytes = st.Bytes()
			return c, nil
		}
		if err != nil {
			return nil, err
		}
		if ev != nil {
			c.Events = append(c.Events, *ev)
		} else {
			c.Blocks = append(c.Blocks, *blk)
			c.BlockAt = append(c.BlockAt, len(c.Events))
		}
	}
}

// Cursor returns a walk of c in file order, its blocks placed among its
// events as BlockAt records: each call returns exactly one of an event and
// a block, as Stream.Next does, and io.EOF after the last.
func (c *Capture) Cursor() func() (*Event, *AccessBlock, error) {
	event, blk := 0, 0
	return func() (*Event, *AccessBlock, error) {
		switch {
		case len(c.BlockAt) != len(c.Blocks):
			return nil, nil, fmt.Errorf("trace: rebuild: %d block positions for %d blocks", len(c.BlockAt), len(c.Blocks))
		case blk < len(c.Blocks) && c.BlockAt[blk] <= event:
			blk++
			return nil, &c.Blocks[blk-1], nil
		case event < len(c.Events):
			event++
			return &c.Events[event-1], nil, nil
		case blk < len(c.Blocks):
			return nil, nil, fmt.Errorf("trace: rebuild: block %d placed past the last event", blk)
		}
		return nil, nil, io.EOF
	}
}
