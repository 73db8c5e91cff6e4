package slab

import (
	"testing"
	"unsafe"
)

type rec struct {
	a, b uint64
	p    *rec
}

// TestArena is the one allocator's contract, which its five users (OM
// and DePa strand records, future records, cord labels and chunks) rely on: the
// records handed out are distinct within and across chunks, Bytes is
// chunks × records × size, a released chunk is handed out again, and a
// nil receiver allocates from the heap.
func TestArena(t *testing.T) {
	const records = 8
	pool := NewPool[rec](records)
	var a Arena[rec] // the zero value is ready
	seen := map[*rec]bool{}
	for i := 0; i < 3*records; i++ {
		r := a.Get(pool)
		if seen[r] {
			t.Fatalf("record %d handed out twice", i)
		}
		seen[r] = true
		r.a = uint64(i) // the caller assigns; nothing below may alias it
		if want := int64((i/records + 1) * records * int(unsafe.Sizeof(rec{}))); a.Bytes() != want {
			t.Fatalf("after %d records: Bytes = %d, want %d", i+1, a.Bytes(), want)
		}
	}
	i := 0
	for _, c := range a.chunks {
		for j := range *c {
			if (*c)[j].a != uint64(i) {
				t.Fatalf("record %d overwritten: %d", i, (*c)[j].a)
			}
			i++
		}
	}

	// A released chunk is handed out again, and Bytes restarts from zero.
	// (Under -race sync.Pool drops a quarter of what it is given, hence
	// the rounds.)
	for round, recycled := 0, false; !recycled; round++ {
		if round == 20 {
			t.Fatal("no released chunk was handed out again in 20 rounds")
		}
		a.Release()
		if a.Bytes() != 0 {
			t.Fatalf("Bytes = %d after Release", a.Bytes())
		}
		r := a.Get(pool)
		recycled = seen[r]
		seen[r] = true
	}
	a.Release()

	var nilArena *Arena[rec]
	r1, r2 := nilArena.Get(pool), nilArena.Get(pool)
	if r1 == r2 || *r1 != (rec{}) {
		t.Error("a nil arena must return distinct zero heap records")
	}
	if nilArena.Bytes() != 0 {
		t.Error("a nil arena holds no bytes")
	}
	nilArena.Release()
}
