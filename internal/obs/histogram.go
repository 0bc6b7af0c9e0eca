package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket distribution tracker. Observations are
// routed into the bucket whose upper bound first exceeds the value (the
// last bucket is an implicit +Inf overflow), and sum/min/max are kept
// exactly, so quantile estimates interpolate within one bucket. All
// updates are lock-free atomics; a nil *Histogram is a valid no-op
// instrument.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; len(counts) == len(bounds)+1
	counts  []atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // math.Float64bits; valid only once a bucket counts
	maxBits atomic.Uint64
}

// newHistogram builds a histogram over the given ascending upper
// bounds. A nil/empty slice falls back to TimeBuckets.
func newHistogram(boundaries []float64) *Histogram {
	if len(boundaries) == 0 {
		boundaries = TimeBuckets()
	}
	bounds := make([]float64, len(boundaries))
	copy(bounds, boundaries)
	h := &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// TimeBuckets returns the default latency boundaries in seconds:
// 1µs … ~100s in quarter-decade steps, suitable for everything from a
// single price lookup to a full-scale admission slot.
func TimeBuckets() []float64 {
	out := make([]float64, 0, 33)
	for e := -6.0; e <= 2.0; e += 0.25 {
		out = append(out, math.Pow(10, e))
	}
	return out
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// HistogramSnapshot is the JSON form of a histogram's state.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Snapshot captures the histogram with estimated p50/p95/p99. The
// estimate interpolates linearly inside the bucket containing the
// quantile and clamps to the exact observed min/max, so single-value
// histograms report that value for every quantile.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	// Read bucket counts once; concurrent writers may advance the
	// histogram mid-snapshot, which at worst skews quantiles within the
	// snapshot by the in-flight observations.
	counts := make([]int64, len(h.counts))
	total := int64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{
		Count: total,
		Sum:   math.Float64frombits(h.sumBits.Load()),
	}
	if total == 0 {
		return s
	}
	s.Min = math.Float64frombits(h.minBits.Load())
	s.Max = math.Float64frombits(h.maxBits.Load())
	s.Mean = s.Sum / float64(total)
	s.P50 = h.quantile(counts, total, 0.50, s.Min, s.Max)
	s.P95 = h.quantile(counts, total, 0.95, s.Min, s.Max)
	s.P99 = h.quantile(counts, total, 0.99, s.Min, s.Max)
	s.P999 = h.quantile(counts, total, 0.999, s.Min, s.Max)
	return s
}

// quantile estimates the q-quantile from bucket counts. rank counts
// from 1; the value interpolates within the bucket's [lower, upper)
// range by the rank's relative position.
func (h *Histogram) quantile(counts []int64, total int64, q, min, max float64) float64 {
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lower := min
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := max
			if i < len(h.bounds) && h.bounds[i] < upper {
				upper = h.bounds[i]
			}
			if lower < min {
				lower = min
			}
			if upper < lower {
				upper = lower
			}
			frac := (rank - float64(cum)) / float64(c)
			return lower + (upper-lower)*frac
		}
		cum += c
	}
	return max
}
