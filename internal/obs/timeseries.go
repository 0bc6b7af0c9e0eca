package obs

import "sync"

// DefaultSeriesCapacity bounds a series when the caller does not know
// the horizon up front.
const DefaultSeriesCapacity = 4096

// Series is one named metric's fixed-capacity ring buffer of
// (slot, value) samples — the building block of the per-slot telemetry
// in the registry snapshot's timeseries section (/metrics.json and the
// run report's observability).
// Capacity is fixed at creation, so recording never allocates: once the
// ring is full the oldest sample is overwritten and Dropped grows. A nil
// *Series is a valid no-op instrument.
type Series struct {
	mu    sync.Mutex
	slots []int64
	vals  []float64
	head  int   // next write position
	n     int   // retained samples, <= cap
	total int64 // samples ever recorded
}

// newSeries builds a series with the given capacity (DefaultSeriesCapacity
// when non-positive).
func newSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = DefaultSeriesCapacity
	}
	return &Series{
		slots: make([]int64, capacity),
		vals:  make([]float64, capacity),
	}
}

// Record appends one sample. Allocation-free; no-op on a nil series.
func (s *Series) Record(slot int64, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.slots[s.head] = slot
	s.vals[s.head] = v
	s.head++
	if s.head == len(s.slots) {
		s.head = 0
	}
	if s.n < len(s.slots) {
		s.n++
	}
	s.total++
	s.mu.Unlock()
}

// SeriesSnapshot is the JSON form of one series: the retained samples in
// recording order (oldest first).
type SeriesSnapshot struct {
	Capacity int `json:"capacity"`
	// Total counts samples ever recorded; Total - len(Slots) were dropped
	// by the ring.
	Total  int64     `json:"total"`
	Slots  []int64   `json:"slots,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

// Last returns the most recent sample value, or 0 for an empty series.
func (s SeriesSnapshot) Last() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// Snapshot copies the retained samples oldest-first. Safe to call
// concurrently with Record; a nil series yields the zero snapshot.
func (s *Series) Snapshot() SeriesSnapshot {
	if s == nil {
		return SeriesSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SeriesSnapshot{Capacity: len(s.slots), Total: s.total}
	if s.n == 0 {
		return snap
	}
	snap.Slots = make([]int64, s.n)
	snap.Values = make([]float64, s.n)
	start := s.head - s.n
	if start < 0 {
		start += len(s.slots)
	}
	for i := 0; i < s.n; i++ {
		j := start + i
		if j >= len(s.slots) {
			j -= len(s.slots)
		}
		snap.Slots[i] = s.slots[j]
		snap.Values[i] = s.vals[j]
	}
	return snap
}

// Sampler owns a registry's time series: named rings sharing one
// capacity, fed once per slot by sim.Run. A nil *Sampler hands out nil
// (no-op) series, so callers can wire sampling unconditionally.
type Sampler struct {
	mu       sync.Mutex
	capacity int
	series   map[string]*Series
}

// Series returns the named series, creating it with the sampler's
// capacity on first use. Returns nil on a nil sampler.
func (sp *Sampler) Series(name string) *Series {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	s, ok := sp.series[name]
	if !ok {
		s = newSeries(sp.capacity)
		sp.series[name] = s
	}
	return s
}

// Snapshot captures every series by name. Nil samplers yield nil.
func (sp *Sampler) Snapshot() map[string]SeriesSnapshot {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	series := make(map[string]*Series, len(sp.series))
	for k, v := range sp.series {
		series[k] = v
	}
	sp.mu.Unlock()
	if len(series) == 0 {
		return nil
	}
	out := make(map[string]SeriesSnapshot, len(series))
	for k, s := range series {
		out[k] = s.Snapshot()
	}
	return out
}

// Sampler returns the registry's time-series sampler, creating it with
// the given per-series capacity on first use (later calls reuse the
// existing sampler and ignore the argument; non-positive capacities fall
// back to DefaultSeriesCapacity). Returns nil on a nil registry.
func (r *Registry) Sampler(capacity int) *Sampler {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sampler == nil {
		if capacity <= 0 {
			capacity = DefaultSeriesCapacity
		}
		r.sampler = &Sampler{capacity: capacity, series: make(map[string]*Series)}
	}
	return r.sampler
}
