package sforder

import (
	"fmt"
	"sync/atomic"

	"sforder/internal/dag"
	"sforder/internal/sched"
)

// Array is an instrumented slice: every element access annotates the
// corresponding shadow address automatically, so workloads don't manage
// address arithmetic by hand. Create Arrays with NewArray; distinct
// arrays of one program occupy disjoint shadow ranges.
//
//	xs := sforder.NewArray[int](1024)
//	...
//	xs.Set(t, i, 42)       // annotates the write and stores
//	v := xs.Get(t, i)      // annotates the read and loads
//	xs.GetRange(t, buf, i) // one annotation for len(buf) reads, then copies
type Array[T any] struct {
	base uint64
	data []T
}

// nextShadowBase allocates disjoint shadow ranges across all Arrays of
// the process. Addresses only need to be unique, not dense.
var nextShadowBase atomic.Uint64

// NewArray allocates an instrumented array of n elements.
func NewArray[T any](n int) *Array[T] {
	if n < 0 {
		panic("sforder: NewArray with negative length")
	}
	base := nextShadowBase.Add(uint64(n)) - uint64(n)
	return &Array[T]{base: base, data: make([]T, n)}
}

// Len returns the element count.
func (a *Array[T]) Len() int { return len(a.data) }

// Addr returns the shadow address of element i, for mixing Array use
// with raw Task.Read/Task.Write annotations.
func (a *Array[T]) Addr(i int) uint64 { return a.base + uint64(i) }

// Every accessor indexes the slice before it annotates: an index out of
// range panics having annotated nothing, instead of first recording an
// access to the shadow address of the next array's element.

// Get reads element i on behalf of t's current strand.
func (a *Array[T]) Get(t *Task, i int) T {
	v := a.data[i]
	t.Read(a.Addr(i))
	return v
}

// Set writes element i on behalf of t's current strand.
func (a *Array[T]) Set(t *Task, i int, v T) {
	p := &a.data[i]
	t.Write(a.Addr(i))
	*p = v
}

// Update applies f to element i (a read-modify-write: both accesses are
// annotated).
func (a *Array[T]) Update(t *Task, i int, f func(T) T) {
	p := &a.data[i]
	t.Read(a.Addr(i))
	t.Write(a.Addr(i))
	*p = f(*p)
}

// GetRange copies elements lo, lo+1, … into dst on behalf of t's current
// strand, with one range annotation (Task.ReadRange) that is the len(dst)
// reads Get would annotate.
func (a *Array[T]) GetRange(t *Task, dst []T, lo int) {
	src := a.data[lo : lo+len(dst)]
	t.ReadRange(a.Addr(lo), len(dst))
	copy(dst, src)
}

// SetRange copies src into elements lo, lo+1, … on behalf of t's current
// strand, with one range annotation (Task.WriteRange) that is the len(src)
// writes Set would annotate.
func (a *Array[T]) SetRange(t *Task, lo int, src []T) {
	dst := a.data[lo : lo+len(src)]
	t.WriteRange(a.Addr(lo), len(src))
	copy(dst, src)
}

// Raw returns the backing slice without instrumentation — for
// verification code that runs after the parallel phase.
func (a *Array[T]) Raw() []T { return a.data }

// CheckStructured executes main serially while recording its computation
// dag and verifies the structured-future restrictions (paper §2): each
// future is touched at most once, every get is reachable from its
// create's continuation without passing through the created task, and
// the dag is a well-formed SF-dag. It returns nil when the program's
// use of futures is structured on this input.
//
// The check is input-specific (like race detection itself) and costs
// O(V·E) in the recorded dag, so use it in tests, not production runs.
func CheckStructured(main func(*Task)) error {
	rec := dag.NewRecorder()
	if _, err := sched.Run(sched.Options{Serial: true, Tracer: rec}, main); err != nil {
		return fmt.Errorf("sforder: execution failed: %w", err)
	}
	return rec.G.Validate()
}
