package graph

import (
	"time"

	"spacebooking/internal/obs"
)

// Instruments holds the package's observability counters. There is no
// package-global attachment point: each run threads its own handle, so
// concurrent searches over different states never write each other's
// counters. Explicit graphs carry a handle via (*Graph).Instrument;
// implicit adjacencies (like netstate.View) expose one through the
// optional Instrumented interface, which the searches probe at entry.
type Instruments struct {
	// HeapPops counts priority-queue pops in Dijkstra searches.
	HeapPops *obs.Counter
	// EdgeRelaxations counts edges examined across all searches.
	EdgeRelaxations *obs.Counter
	// FastPathSearches counts searches served by the devirtualized flat
	// (CSR) routing fast path rather than the generic Adjacency path.
	FastPathSearches *obs.Counter
	// PrunedLabels counts search labels discarded by budget pruning:
	// states whose accumulated plan price already exceeded the request's
	// valuation, so admission would reject any completion through them.
	PrunedLabels *obs.Counter
	// SearchNanos accumulates wall nanoseconds spent inside path
	// searches. Nil unless trace detail is enabled (netstate
	// EnableTraceDetail): the serving layer's per-request phase
	// breakdown needs it, batch runs and benchmarks never pay the two
	// clock reads per search. Search time includes the transit-cost
	// callbacks, so it overlaps PricingNanos; consumers subtract.
	SearchNanos *obs.Counter
	// PricingNanos accumulates wall nanoseconds spent in the
	// deficit-pricing walks invoked from inside searches. It lives here
	// (not on energy.Instruments) because this struct is the per-State
	// handle the pricing loop already carries; nil unless trace detail
	// is enabled.
	PricingNanos *obs.Counter
}

// Instrumented is the optional interface an Adjacency implements to
// route search counters somewhere. A nil return keeps the searches on
// their no-op branches.
type Instrumented interface {
	Instruments() *Instruments
}

// instrumentsOf extracts the adjacency's instruments, if it carries
// any. One interface type-assertion per search call, never per pop.
func instrumentsOf(g Adjacency) *Instruments {
	if h, ok := g.(Instrumented); ok {
		return h.Instruments()
	}
	return nil
}

// searchDone flushes one search's locally accumulated pop count.
// Searches tally pops into a stack int and flush once per call, so the
// enabled path costs one atomic add per search rather than one per pop.
func (in *Instruments) searchDone(pops int64) {
	if in == nil {
		return
	}
	in.HeapPops.Add(pops)
}

// relax counts one examined edge. Called inside the neighbor-visit
// closures, which capture `in` read-only — a by-value capture, so the
// disabled path stays a single branch with no added allocation.
func (in *Instruments) relax() {
	if in == nil {
		return
	}
	in.EdgeRelaxations.Inc()
}

// searchTimerStart returns the wall clock when search timing is
// attached, or the zero time — no clock read, no accumulation — when it
// is not. Pair with a deferred searchTimerEnd.
func (in *Instruments) searchTimerStart() time.Time {
	if in == nil || in.SearchNanos == nil {
		return time.Time{}
	}
	return time.Now()
}

// searchTimerEnd accumulates the elapsed search time for a non-zero
// start.
func (in *Instruments) searchTimerEnd(t0 time.Time) {
	if t0.IsZero() {
		return
	}
	in.SearchNanos.Add(time.Since(t0).Nanoseconds())
}
