package obs

import (
	"math"
	"testing"
)

func TestSLOClassBurnRate(t *testing.T) {
	reg := New()
	c := NewSLOClass(reg, "latency", 0.025, 0.99)

	// No events: no budget spent.
	s := c.Snapshot()
	if s.BurnRate != 0 || s.GoodFraction != 1 {
		t.Fatalf("empty class snapshot = %+v", s)
	}

	for i := 0; i < 99; i++ {
		c.ObserveLatency(0.001)
	}
	c.ObserveLatency(0.100)

	s = c.Snapshot()
	if s.Good != 99 || s.Bad != 1 {
		t.Fatalf("good/bad = %d/%d", s.Good, s.Bad)
	}
	// 1% bad against a 1% allowance: burning exactly at budget.
	if math.Abs(s.BurnRate-1.0) > 1e-9 {
		t.Errorf("burn rate = %v, want 1.0", s.BurnRate)
	}
	if math.Abs(s.GoodFraction-0.99) > 1e-9 {
		t.Errorf("good fraction = %v", s.GoodFraction)
	}

	// The gauges mirror the counts.
	snap := reg.Snapshot()
	if snap.Gauges["slo.latency.good"] != 99 || snap.Gauges["slo.latency.bad"] != 1 {
		t.Errorf("gauges = %v", snap.Gauges)
	}
	if math.Abs(snap.Gauges["slo.latency.burn_rate"]-1.0) > 1e-9 {
		t.Errorf("burn gauge = %v", snap.Gauges["slo.latency.burn_rate"])
	}
}

func TestSLOClassClampsTarget(t *testing.T) {
	c := NewSLOClass(nil, "avail", 0, 1.0) // target 1 would divide by zero
	c.Observe(false)
	s := c.Snapshot()
	if math.IsInf(s.BurnRate, 0) || math.IsNaN(s.BurnRate) {
		t.Fatalf("burn rate not finite: %v", s.BurnRate)
	}
	if s.Bad != 1 {
		t.Fatalf("bad = %d", s.Bad)
	}
}

func TestSLOClassNil(t *testing.T) {
	var c *SLOClass
	c.Observe(true) // must not panic
	c.ObserveLatency(1)
	if s := c.Snapshot(); s != (SLOSnapshot{}) {
		t.Errorf("nil snapshot = %+v", s)
	}
}
