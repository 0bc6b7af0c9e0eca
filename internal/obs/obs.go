// Package obs is the runtime observability layer of the simulator: a
// dependency-free registry of atomic counters, gauges, fixed-bucket
// latency histograms and span-style phase timers, threaded through the
// hot layers (sim, core, pricing, graph, netstate, energy).
//
// Design constraints, in order:
//
//  1. Near-zero cost when disabled. Every instrument handle is nil-safe:
//     a nil *Counter, *Gauge or *Histogram turns its methods into a
//     single predictable branch, and a nil *Registry hands out nil
//     handles. Hot paths therefore instrument unconditionally and pay
//     nothing (no allocations, no atomics, no time.Now calls) until a
//     registry is attached.
//  2. Race-safe. Instruments are plain atomics; the registry's name maps
//     are mutex-guarded but only touched at handle-creation time, never
//     on the hot path. `go test -race` must stay clean with concurrent
//     writers and snapshot readers.
//  3. Machine-readable, in one shape. Registry.WriteJSON emits one
//     expvar-style JSON snapshot — counters, gauges, histograms, phases,
//     per-slot time series and top-K trackers — served whole at
//     /metrics.json by the debug server (/metrics renders the same
//     snapshot for Prometheus), and Report packages a whole run — config
//     echo, result metrics and that snapshot — as a diffable artifact.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (zero for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically updated float64 level. The zero value is ready
// to use; a nil *Gauge is a valid no-op instrument.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current level (zero for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry names and owns a run's instruments. The zero value is not
// usable; construct with New. A nil *Registry is a valid disabled
// registry: every lookup returns a nil (no-op) instrument and every
// phase span is a no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	phases   map[string]*Phase
	topks    map[string]*TopK
	sampler  *Sampler
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		phases:   make(map[string]*Phase),
		topks:    make(map[string]*TopK),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls reuse the existing
// buckets and ignore the argument). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, boundaries []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(boundaries)
		r.hists[name] = h
	}
	return h
}

// sortedKeys returns map keys in lexical order for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
