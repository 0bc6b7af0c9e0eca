package obs

import (
	"math"
	"testing"
)

// TestQuantileGuards: empty and nil histograms must snapshot every
// quantile as 0, never NaN or a bucket bound.
func TestQuantileGuards(t *testing.T) {
	var nilHist *Histogram
	for _, h := range []*Histogram{nilHist, newHistogram(nil)} {
		s := h.Snapshot()
		for _, q := range []float64{s.P50, s.P95, s.P99, s.P999} {
			if q != 0 || math.IsNaN(q) {
				t.Errorf("empty snapshot quantiles = %+v, want 0", s)
			}
		}
	}
}

func TestQuantileValues(t *testing.T) {
	h := newHistogram(nil)
	h.Observe(0.010)
	// A single observation reports itself at every quantile.
	s := h.Snapshot()
	for _, got := range []float64{s.P50, s.P99, s.P999} {
		if math.Abs(got-0.010) > 1e-12 {
			t.Errorf("single-value snapshot = %+v, want 0.010 at every quantile", s)
		}
	}

	// With a wide spread, p999 must sit in the max's bucket, above p50.
	h2 := newHistogram(nil)
	for i := 0; i < 990; i++ {
		h2.Observe(0.001)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(1.0)
	}
	snap := h2.Snapshot()
	if snap.P999 <= snap.P50 {
		t.Errorf("p999 %v <= p50 %v", snap.P999, snap.P50)
	}
	if snap.P999 > 1.0 || snap.P999 < 0.5 {
		t.Errorf("p999 = %v, want within the top observation's bucket", snap.P999)
	}
}
