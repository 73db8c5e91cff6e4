package workload

import (
	"fmt"

	"sforder/internal/sched"
)

// HW returns the Heart Wall tracking kernel: a synthetic stand-in for
// the Rodinia application that tracks the movement of sample points on a
// heart wall across a sequence of ultrasound frames. frames is the
// number of frames, batches the number of tracking-point batches per
// frame (one future each), and window the per-point search-window pixel
// count.
//
// The dag shape matches the original: per frame, a fan of independent
// tracking futures; the next frame's futures are created only after the
// previous frame's are gotten, because each point's search is centred on
// its previous position. Accesses are read-heavy — each point reads its
// whole search window and writes one position — mirroring the paper's
// profile (reads ≈ queries ≫ writes).
func HW(frames, batches, window int) *Benchmark {
	if frames < 1 || batches < 1 || window < 4 {
		panic(fmt.Sprintf("workload: HW bad params frames=%d batches=%d window=%d", frames, batches, window))
	}
	return &Benchmark{
		Name: "hw",
		Desc: "heart wall point tracking (synthetic Rodinia kernel)",
		N:    frames,
		B:    batches,
		Make: func() *Run { return newHWRun(frames, batches, window) },
	}
}

type hwState struct {
	frames, batches, window int
	pointsPerBatch          int
	img                     []int32 // one frame's pixels, rewritten per frame
	pos                     []int32 // point positions, one per point
	checksum                int64
	wantChecksum            int64
}

func newHWRun(frames, batches, window int) *Run {
	const pointsPerBatch = 4
	npts := batches * pointsPerBatch
	imgSize := npts * window
	st := &hwState{
		frames: frames, batches: batches, window: window,
		pointsPerBatch: pointsPerBatch,
		img:            make([]int32, imgSize),
		pos:            make([]int32, npts),
	}
	for p := 0; p < npts; p++ {
		st.pos[p] = int32(p * window)
	}
	st.wantChecksum = st.reference()
	return &Run{Main: st.main, Verify: st.verify}
}

// Shadow layout: img at [0, len(img)), pos after it.
func (s *hwState) addrImg(i int) uint64 { return uint64(i) }
func (s *hwState) addrPos(p int) uint64 { return uint64(len(s.img) + p) }

// pixel is the deterministic synthetic frame content.
func pixel(frame, i int) int32 {
	x := uint32(frame)*2654435761 ^ uint32(i*40503)
	x ^= x >> 13
	return int32(x % 251)
}

func (s *hwState) main(t *sched.Task) {
	npts := s.batches * s.pointsPerBatch
	for f := 0; f < s.frames; f++ {
		// "Acquire" the frame serially (writes the image buffer).
		t.WriteRange(s.addrImg(0), len(s.img))
		for i := range s.img {
			s.img[i] = pixel(f, i)
		}
		// Track all batches in parallel, one future per batch.
		futs := make([]*sched.Future, s.batches)
		for bi := 0; bi < s.batches; bi++ {
			bi := bi
			futs[bi] = t.Create(func(c *sched.Task) any {
				for p := bi * s.pointsPerBatch; p < (bi+1)*s.pointsPerBatch; p++ {
					s.track(c, p)
				}
				return nil
			})
		}
		for _, h := range futs {
			t.Get(h)
		}
	}
	// Checksum the final positions.
	for p := 0; p < npts; p++ {
		t.Read(s.addrPos(p))
		s.checksum += int64(s.pos[p])
	}
}

// track scans point p's search window in the current frame and moves the
// point to the window's brightest offset.
func (s *hwState) track(t *sched.Task, p int) {
	t.Read(s.addrPos(p))
	base := int(s.pos[p]) % (len(s.img) - s.window)
	if base < 0 {
		base = 0
	}
	bestOff, bestVal := 0, int32(-1)
	t.ReadRange(s.addrImg(base), s.window)
	for o := 0; o < s.window; o++ {
		if v := s.img[base+o]; v > bestVal {
			bestVal = v
			bestOff = o
		}
	}
	t.Write(s.addrPos(p))
	s.pos[p] = int32((base + bestOff) % len(s.img))
}

// reference recomputes the whole run serially (uninstrumented).
func (s *hwState) reference() int64 {
	npts := s.batches * s.pointsPerBatch
	img := make([]int32, len(s.img))
	pos := make([]int32, npts)
	for p := range pos {
		pos[p] = int32(p * s.window)
	}
	for f := 0; f < s.frames; f++ {
		for i := range img {
			img[i] = pixel(f, i)
		}
		for p := 0; p < npts; p++ {
			base := int(pos[p]) % (len(img) - s.window)
			if base < 0 {
				base = 0
			}
			bestOff, bestVal := 0, int32(-1)
			for o := 0; o < s.window; o++ {
				if v := img[base+o]; v > bestVal {
					bestVal = v
					bestOff = o
				}
			}
			pos[p] = int32((base + bestOff) % len(img))
		}
	}
	var sum int64
	for _, v := range pos {
		sum += int64(v)
	}
	return sum
}

func (s *hwState) verify() error {
	if s.checksum != s.wantChecksum {
		return fmt.Errorf("hw: checksum %d, want %d", s.checksum, s.wantChecksum)
	}
	return nil
}
