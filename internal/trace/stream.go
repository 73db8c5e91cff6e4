package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"sforder/internal/detect"
)

// Stream decodes a capture incrementally: one structure event or access
// block per Next call, in file order, without holding the capture in
// memory. It is the decoder under Load (which drains a Stream into a
// Capture) and the producer side of streaming replay, which starts
// detection while the file is still being read.
//
// A Stream validates as it goes: header, version, page size, op bytes,
// block shape, and — the property streaming consumers depend on — that
// every access block names a strand some earlier structure event declared.
// The recorder's lane order and hand-off flushes guarantee that ordering
// in any genuine capture (the tap fires between a strand's introduction
// and its strand-ending event), so a violation means corruption, caught
// before the block's strand id can size any consumer state. The trailer is
// verified at end of stream; a capture cut short yields an error, never a
// silent prefix.
type Stream struct {
	br  *bufio.Reader
	cr  *countingReader
	err error
	end bool
	blk AccessBlock // the block Next last returned

	events  uint64
	blocks  uint64
	entries uint64
	bytes   int64
	strands uint64 // 1 + largest strand id declared by structure events
	futures int    // 1 + largest future id declared by structure events
}

// OpenStream begins decoding a capture from r, consuming and validating
// the header. The reader is buffered internally; the caller must not
// read from r while the Stream is live.
func OpenStream(r io.Reader) (*Stream, error) {
	cr := &countingReader{r: r}
	br := bufio.NewReaderSize(cr, 1<<16)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: load: short header: %w", err)
	}
	if [8]byte(hdr[:8]) != magic {
		return nil, fmt.Errorf("trace: load: bad magic %q (not an sftrace capture)", hdr[:8])
	}
	if [4]byte(hdr[8:12]) != byteMark {
		return nil, fmt.Errorf("trace: load: byte-order marker % x, want % x (foreign byte order)",
			hdr[8:12], byteMark[:])
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: load: version: %w", err)
	}
	if version != Version {
		return nil, fmt.Errorf("trace: load: format version %d, want %d (stale or foreign capture; re-record it)",
			version, Version)
	}
	pageBits, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: load: page size: %w", err)
	}
	if pageBits != detect.PageBits {
		return nil, fmt.Errorf("trace: load: %d-bit shadow pages, this build has %d (foreign capture; re-record it)",
			pageBits, detect.PageBits)
	}
	return &Stream{br: br, cr: cr}, nil
}

func (s *Stream) uv() uint64 {
	if s.err != nil {
		return 0
	}
	var v uint64
	v, s.err = binary.ReadUvarint(s.br)
	return v
}

func (s *Stream) noteStrand(id uint64) uint64 {
	if id+1 > s.strands {
		s.strands = id + 1
	}
	return id
}

func (s *Stream) noteFut(id uint64) int {
	if int(id)+1 > s.futures {
		s.futures = int(id) + 1
	}
	return int(id)
}

// corrupt kills the Stream with a malformation error.
func (s *Stream) corrupt(format string, args ...any) (*Event, *AccessBlock, error) {
	s.err = fmt.Errorf("trace: load: "+format+" (corrupt capture)", args...)
	return nil, nil, s.err
}

// Next returns the next item of the capture: exactly one of ev and blk
// is non-nil. blk is valid until the next call. After the trailer has
// been read and verified, Next returns io.EOF. Any malformation is a
// non-EOF error, and the Stream is dead afterwards.
func (s *Stream) Next() (ev *Event, blk *AccessBlock, err error) {
	if s.end {
		return nil, nil, io.EOF
	}
	if s.err != nil {
		return nil, nil, s.err
	}
	opByte, e := s.br.ReadByte()
	if e != nil {
		s.err = fmt.Errorf("trace: load: truncated capture (no trailer): %w", e)
		return nil, nil, s.err
	}
	op := Op(opByte)
	switch op {
	case OpRoot:
		s.noteFut(0) // the root strand belongs to the implicit future 0
		ev = &Event{Op: op, U: s.noteStrand(s.uv())}
	case OpSpawn:
		ev = &Event{Op: op, U: s.noteStrand(s.uv()), A: s.noteStrand(s.uv()), B: s.noteStrand(s.uv()), Placeholder: s.uv()}
		if ev.Placeholder > 0 {
			s.noteStrand(ev.Placeholder - 1)
		}
	case OpCreate:
		ev = &Event{Op: op, U: s.noteStrand(s.uv()), A: s.noteStrand(s.uv()), B: s.noteStrand(s.uv()), Placeholder: s.uv()}
		if ev.Placeholder > 0 {
			s.noteStrand(ev.Placeholder - 1)
		}
		ev.Fut = s.noteFut(s.uv())
		ev.FutParent = s.noteFut(s.uv())
	case OpSync:
		ev = &Event{Op: op, U: s.noteStrand(s.uv()), A: s.noteStrand(s.uv())}
		n := s.uv()
		for i := uint64(0); i < n && s.err == nil; i++ {
			ev.Sinks = append(ev.Sinks, s.noteStrand(s.uv()))
		}
	case OpReturn:
		ev = &Event{Op: op, U: s.noteStrand(s.uv())}
	case OpPut:
		ev = &Event{Op: op, U: s.noteStrand(s.uv()), Fut: s.noteFut(s.uv())}
	case OpGet:
		ev = &Event{Op: op, U: s.noteStrand(s.uv()), A: s.noteStrand(s.uv()), Fut: s.noteFut(s.uv())}
	case opAccess:
		b := &s.blk
		*b = AccessBlock{Strand: s.uv(), Page: s.uv()}
		var mask byte
		if s.err == nil {
			mask, s.err = s.br.ReadByte()
		}
		// Validate against the strand count the structure events have
		// declared so far — not the access stream's own claim — before the
		// id reaches any table sizing. The recorder orders every block
		// after its strand's introduction, so a forward reference can only
		// be corruption.
		switch {
		case s.err != nil: // truncated; reported below
		case b.Strand >= s.strands:
			return s.corrupt("access block names strand %d before any structure event declares it", b.Strand)
		case b.Page >= 1<<(64-detect.PageBits):
			return s.corrupt("access block names page %#x past the address space", b.Page)
		case mask == 0:
			return s.corrupt("empty access block of strand %d", b.Strand)
		default:
			n := 8 * bits.OnesCount8(mask)
			var p []byte
			if p, s.err = s.br.Peek(n); s.err != nil {
				break
			}
			sets := [2]*detect.SlotSet{&b.Reads, &b.Writes}
			for i := range 2 * words {
				if mask>>i&1 == 0 {
					continue
				}
				word := binary.LittleEndian.Uint64(p)
				if p = p[8:]; word == 0 {
					return s.corrupt("access block of strand %d has a zero word its mask names", b.Strand)
				}
				sets[i/words][i%words] = word
			}
			s.br.Discard(n) // Peek returned the n bytes
			s.entries += uint64(b.Entries())
			s.blocks++
			return nil, b, nil
		}
	case opEnd:
		wantStruct, wantEntries := s.uv(), s.uv()
		if s.err != nil {
			s.err = fmt.Errorf("trace: load: truncated trailer: %w", s.err)
			return nil, nil, s.err
		}
		if wantStruct != s.events || wantEntries != s.entries {
			return s.corrupt("trailer mismatch: %d/%d events, %d/%d access entries",
				s.events, wantStruct, s.entries, wantEntries)
		}
		s.bytes = s.cr.n - int64(s.br.Buffered())
		s.end = true
		return nil, nil, io.EOF
	default:
		return s.corrupt("unknown op %d at event %d", opByte, s.events+s.blocks)
	}
	if s.err != nil {
		s.err = fmt.Errorf("trace: load: truncated capture: %w", s.err)
		return nil, nil, s.err
	}
	s.events++
	return ev, nil, nil
}

// Entries, Strands, Futures, and Bytes report the totals decoded so far;
// after Next has returned io.EOF they are the whole capture's (with Bytes
// excluding any trailing data beyond it).
func (s *Stream) Entries() uint64 { return s.entries }
func (s *Stream) Strands() uint64 { return s.strands }
func (s *Stream) Futures() int    { return s.futures }
func (s *Stream) Bytes() int64    { return s.bytes }
