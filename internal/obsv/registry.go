// Package obsv is the observability layer of the detector: a stats
// registry of named read-only sources that the runtime and detector
// components publish their internals through, a Chrome-trace-format
// strand tracer for offline timeline inspection, and an HTTP handler
// exposing both (plus net/http/pprof) for live runs.
//
// The paper's entire evaluation (Figures 3–5) reads detector-internal
// counters: reachability queries, gp merges, OM rebalances, memory
// accounting. The Registry is the one API that reads them: components
// own their hot counters (plain atomics) and register read-only closures
// through RegisterFunc, with no bespoke getter beside them. Enabling
// stats therefore costs the hot paths nothing, and a disabled registry
// costs one nil check at assembly time.
//
// Registered names are dotted and stable; see README.md ("Observability")
// for the full catalog. The conventional prefixes:
//
//	sched.*   engine execution counters (strands, spawns, steals, ...)
//	reach.*   reachability component (queries, gp_merges, mem_bytes, ...)
//	om.*      order-maintenance rebalancing (splits, relabels, renumbers)
//	hist.*    access history (races, lock_acquires, mem_bytes, ...)
package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"
)

// Registry is a named collection of int64 metric sources: read-only
// functions registered by components. Snapshot and the writers may be
// called at any time, including while a run is in flight — sources must therefore be safe for concurrent reads (the
// components' own atomics and mutexes provide this).
type Registry struct {
	mu    sync.Mutex
	funcs map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{funcs: map[string]func() int64{}}
}

// RegisterFunc registers fn as the source of name. Re-registering a name
// replaces the previous source (last registration wins), which lets one
// registry be reused across successive runs.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Names returns every registered name in sorted order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.funcs))
	for n := range r.funcs {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// Snapshot evaluates every source and returns a name → value map.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	funcs := make(map[string]func() int64, len(r.funcs))
	for n, fn := range r.funcs {
		funcs[n] = fn
	}
	r.mu.Unlock()

	// Evaluate outside the registry lock: sources may take component
	// locks of their own (e.g. the OM lists' insert mutex).
	out := make(map[string]int64, len(funcs))
	for n, fn := range funcs {
		out[n] = fn()
	}
	return out
}

// WriteJSON writes the snapshot as one sorted JSON object — the same
// shape expvar renders, so the output is expvar-compatible.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	if _, err := fmt.Fprint(w, "{"); err != nil {
		return err
	}
	for i, n := range names {
		sep := ",\n"
		if i == 0 {
			sep = "\n"
		}
		key, err := json.Marshal(n)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s: %d", sep, key, snap[n]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprint(w, "\n}\n")
	return err
}

// WriteText writes the snapshot as an aligned name/value table, sorted
// by name — what `sforder -stats` prints.
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, n := range names {
		fmt.Fprintf(tw, "%s\t%d\n", n, snap[n])
	}
	return tw.Flush()
}
