package sforder_test

import (
	"strings"
	"testing"

	"sforder"
)

func TestArrayBasics(t *testing.T) {
	xs := sforder.NewArray[int](8)
	if xs.Len() != 8 {
		t.Fatalf("Len = %d", xs.Len())
	}
	res, err := sforder.Run(sforder.Config{Serial: true}, func(task *sforder.Task) {
		xs.Set(task, 3, 42)
		if got := xs.Get(task, 3); got != 42 {
			t.Errorf("Get = %d", got)
		}
		xs.Update(task, 3, func(v int) int { return v + 1 })
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount != 0 {
		t.Errorf("serial accesses raced: %v", res.Races)
	}
	if xs.Raw()[3] != 43 {
		t.Errorf("Raw[3] = %d", xs.Raw()[3])
	}
}

func TestArraysHaveDisjointShadowRanges(t *testing.T) {
	a := sforder.NewArray[int](100)
	b := sforder.NewArray[float64](100)
	for i := 0; i < 100; i++ {
		if a.Addr(i) == b.Addr(i) {
			t.Fatalf("arrays share shadow address %d", a.Addr(i))
		}
	}
}

func TestArrayDetectsRace(t *testing.T) {
	xs := sforder.NewArray[int](4)
	res, err := sforder.Run(sforder.Config{Serial: true}, func(t *sforder.Task) {
		h := t.Create(func(c *sforder.Task) any {
			xs.Set(c, 0, 1)
			return nil
		})
		xs.Set(t, 0, 2) // conflicts with the future body
		t.Get(h)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RaceCount == 0 {
		t.Fatal("Array race missed")
	}
	if res.Races[0].Addr != xs.Addr(0) {
		t.Errorf("race addr %#x, want %#x", res.Races[0].Addr, xs.Addr(0))
	}
}

// TestArrayRanges: GetRange and SetRange copy what Get and Set would, and
// annotate the same accesses — a range of writes in a future races with
// the continuation's range of reads on exactly their overlap, across a
// shadow page boundary.
func TestArrayRanges(t *testing.T) {
	xs := sforder.NewArray[int](600)
	src := make([]int, 300)
	for i := range src {
		src[i] = i + 1
	}
	got := make([]int, 200)
	res, err := sforder.Run(sforder.Config{Serial: true}, func(t *sforder.Task) {
		h := t.Create(func(c *sforder.Task) any {
			xs.SetRange(c, 100, src) // elements 100..399
			return nil
		})
		xs.GetRange(t, got, 350) // elements 350..549: 50 of them overlap
		t.Get(h)
		xs.GetRange(t, got, 200) // ordered after the future by the get
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != src[100+i] {
			t.Fatalf("GetRange element %d = %d, want %d", 200+i, v, src[100+i])
		}
	}
	if res.RaceCount != 50 {
		t.Errorf("%d races, want one on each of the 50 overlapping elements", res.RaceCount)
	}
	for _, r := range res.Races {
		if r.Addr < xs.Addr(350) || r.Addr >= xs.Addr(400) {
			t.Errorf("race on %#x, outside the overlap [%#x, %#x)", r.Addr, xs.Addr(350), xs.Addr(400))
		}
	}
}

// TestArrayOutOfRangeAnnotatesNothing: an accessor given an index past
// the end panics without annotating anything, so it cannot report a race
// on the next array's shadow addresses. The panic is recovered inside the
// program, so the run goes on with whatever the accessor recorded.
func TestArrayOutOfRangeAnnotatesNothing(t *testing.T) {
	for name, bad := range map[string]func(*sforder.Task, *sforder.Array[int]){
		"Get":      func(t *sforder.Task, a *sforder.Array[int]) { a.Get(t, a.Len()) },
		"Set":      func(t *sforder.Task, a *sforder.Array[int]) { a.Set(t, a.Len(), 1) },
		"Update":   func(t *sforder.Task, a *sforder.Array[int]) { a.Update(t, a.Len(), func(v int) int { return v }) },
		"GetRange": func(t *sforder.Task, a *sforder.Array[int]) { a.GetRange(t, make([]int, 2), a.Len()-1) },
		"SetRange": func(t *sforder.Task, a *sforder.Array[int]) { a.SetRange(t, a.Len()-1, make([]int, 2)) },
	} {
		a, next := sforder.NewArray[int](4), sforder.NewArray[int](4)
		if next.Addr(0) != a.Addr(a.Len()) {
			t.Fatalf("the arrays are not adjacent: %#x, %#x", a.Addr(a.Len()), next.Addr(0))
		}
		panicked := false
		res, err := sforder.Run(sforder.Config{Workers: 1}, func(t *sforder.Task) {
			t.Spawn(func(c *sforder.Task) { next.Set(c, 0, 7) })
			func() {
				defer func() { panicked = recover() != nil }()
				bad(t, a)
			}()
			t.Sync()
		})
		if err != nil {
			t.Fatal(err)
		}
		if !panicked {
			t.Errorf("%s past the end did not panic", name)
		}
		if res.RaceCount != 0 {
			t.Errorf("%s past the end reported %v", name, res.Races)
		}
	}
}

func TestNewArrayNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	sforder.NewArray[int](-1)
}

func TestCheckStructuredAccepts(t *testing.T) {
	err := sforder.CheckStructured(func(t *sforder.Task) {
		h := t.Create(func(c *sforder.Task) any {
			c.Spawn(func(*sforder.Task) {})
			c.Sync()
			return 1
		})
		t.Spawn(func(c *sforder.Task) { _ = c.Get(h) })
		t.Sync()
	})
	if err != nil {
		t.Fatalf("structured program rejected: %v", err)
	}
}

func TestCheckStructuredCatchesUnstructuredGet(t *testing.T) {
	// The handle is gotten in a branch that is parallel to the create:
	// no handle-safe path exists, so the program is not structured.
	err := sforder.CheckStructured(func(t *sforder.Task) {
		var h *sforder.Future
		started := make(chan struct{})
		_ = started
		t.Spawn(func(c *sforder.Task) {
			// This child runs first under the serial executor and
			// publishes the handle it creates.
			h = c.Create(func(*sforder.Task) any { return 1 })
		})
		// Parallel branch: gets a handle created in the sibling. Under
		// the serial executor the child has run, so h is non-nil, but
		// the get is logically parallel to the create.
		t.Spawn(func(c *sforder.Task) { _ = c.Get(h) })
		t.Sync()
	})
	if err == nil || !strings.Contains(err.Error(), "handle-safe") {
		t.Fatalf("expected handle-safe violation, got %v", err)
	}
}

func TestCheckStructuredSurfacesExecutionFailure(t *testing.T) {
	defer func() {
		// Serial executor panics propagate.
		if recover() == nil {
			t.Error("expected panic to propagate")
		}
	}()
	sforder.CheckStructured(func(t *sforder.Task) { panic("bad program") })
}
