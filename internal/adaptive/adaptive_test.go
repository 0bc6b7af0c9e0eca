package adaptive

import (
	"math"
	"testing"
	"time"

	"spacebooking/internal/grid"
	"spacebooking/internal/netstate"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

var testEpoch = time.Date(2026, time.July, 5, 0, 0, 0, 0, time.UTC)

func groundEP(i int) topology.Endpoint {
	return topology.Endpoint{Kind: topology.EndpointGround, Index: i}
}

func newTestState(t *testing.T) *netstate.State {
	t.Helper()
	cfg := topology.DefaultConfig(testEpoch)
	cfg.Walker.Planes = 8
	cfg.Walker.SatsPerPlane = 12
	cfg.Walker.PhasingF = 3
	cfg.Horizon = 96
	cfg.MinElevationDeg = 10
	prov, err := topology.NewProvider(cfg, []grid.Site{
		{ID: 0, LatDeg: 40.7, LonDeg: -74.0},
		{ID: 1, LatDeg: 34.1, LonDeg: -118.2},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	state, err := netstate.New(prov, netstate.DefaultEnergyConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	return state
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero window", func(c *Config) { c.WindowSlots = 0 }},
		{"zero F1", func(c *Config) { c.InitialF1 = 0 }},
		{"bad band", func(c *Config) { c.MinF = 4; c.MaxF = 2 }},
		{"step below 1", func(c *Config) { c.Step = 0.9 }},
		{"bad priced-out target", func(c *Config) { c.PricedOutTarget = 1.5 }},
		{"bad depletion target", func(c *Config) { c.DepletionTargetFrac = -0.1 }},
		{"negative nominal", func(c *Config) { c.NominalRatePerSlot = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultConfig(2)
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, DefaultConfig(2)); err == nil {
		t.Error("nil state should error")
	}
	state := newTestState(t)
	bad := DefaultConfig(2)
	bad.WindowSlots = -1
	if _, err := New(state, bad); err == nil {
		t.Error("bad config should error")
	}
}

func TestControllerProcessesWorkload(t *testing.T) {
	state := newTestState(t)
	cfg := DefaultConfig(2)
	ctrl, err := New(state, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Name() != "CEAR-AD" {
		t.Errorf("name = %q", ctrl.Name())
	}
	pairs := []workload.Pair{{Src: groundEP(0), Dst: groundEP(1)}}
	wl := workload.DefaultConfig(96, pairs, 3)
	wl.ArrivalRatePerSlot = 3
	wl.Valuation = 1e8
	reqs, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, r := range reqs {
		d, err := ctrl.Handle(r)
		if err != nil {
			t.Fatal(err)
		}
		if d.Accepted {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("adaptive controller accepted nothing")
	}
	f1, f2 := ctrl.f1, ctrl.f2
	if f1 < cfg.MinF || f1 > cfg.MaxF || f2 < cfg.MinF || f2 > cfg.MaxF {
		t.Errorf("parameters escaped the clamp band: F1=%v F2=%v", f1, f2)
	}
	t.Logf("final F1=%.3f F2=%.3f, %d/%d accepted", f1, f2, accepted, len(reqs))
}

func TestControllerRelaxesWhenPricedOut(t *testing.T) {
	state := newTestState(t)
	cfg := DefaultConfig(2)
	cfg.WindowSlots = 4
	ctrl, err := New(state, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Feed requests whose valuation is below any non-trivial price: after
	// the first few acceptances on the fresh network, everything is
	// priced out, so the controller must relax F toward MinF.
	for slot := 0; slot < 60; slot++ {
		for k := 0; k < 3; k++ {
			req := workload.Request{
				ID: slot*10 + k, Src: groundEP(0), Dst: groundEP(1),
				ArrivalSlot: slot, StartSlot: slot, EndSlot: slot,
				RateMbps: 1500, Valuation: 10, // far below any positive price
			}
			if _, err := ctrl.Handle(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ctrl.f1 >= cfg.InitialF1 {
		t.Errorf("F1 = %v, expected relaxation below initial %v", ctrl.f1, cfg.InitialF1)
	}
}

func TestControllerTightensOnDepletion(t *testing.T) {
	state := newTestState(t)
	cfg := DefaultConfig(2)
	cfg.WindowSlots = 4
	cfg.DepletionTargetFrac = 0.05
	ctrl, err := New(state, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Manually drain 20% of the fleet so the depletion trigger fires at
	// the first window boundary.
	numSats := state.Provider().NumSats()
	for sat := 0; sat < numSats/5; sat++ {
		b := state.Battery(sat)
		drain := b.CapacityJ() * 0.95
		for slot := 0; slot < 10; slot++ {
			drain += b.SolarRemainingAt(slot)
		}
		if err := b.Consume(0, drain); err != nil {
			// Close to the edge is fine too.
			continue
		}
	}
	// Two windows of light traffic to trigger adaptation.
	for slot := 0; slot < 12; slot++ {
		req := workload.Request{
			ID: slot, Src: groundEP(0), Dst: groundEP(1),
			ArrivalSlot: slot, StartSlot: slot, EndSlot: slot,
			RateMbps: 100, Valuation: 1e8,
		}
		if _, err := ctrl.Handle(req); err != nil {
			t.Fatal(err)
		}
	}
	if ctrl.f2 <= cfg.InitialF2 {
		t.Errorf("F2 = %v, expected tightening above initial %v", ctrl.f2, cfg.InitialF2)
	}
}

func TestMovingAveragePredictor(t *testing.T) {
	if _, err := NewMovingAverage(0); err == nil {
		t.Error("k=0 should error")
	}
	m, err := NewMovingAverage(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.PredictLoad(0); got != 0 {
		t.Errorf("empty predictor = %v", got)
	}
	m.Observe(2)
	m.Observe(4)
	if got := m.PredictLoad(0); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	m.Observe(6)
	m.Observe(8) // evicts the 2
	if got := m.PredictLoad(0); got != 6 {
		t.Errorf("windowed mean = %v, want 6", got)
	}
}

func TestPredictorScalesParameters(t *testing.T) {
	state := newTestState(t)
	ma, err := NewMovingAverage(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1) // nominal 1 req/slot
	cfg.WindowSlots = 4
	cfg.Predictor = ma
	ctrl, err := New(state, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Offer 5 req/slot — 5x nominal — so after the first window the
	// prediction far exceeds nominal and both parameters scale up.
	for slot := 0; slot < 12; slot++ {
		for k := 0; k < 5; k++ {
			req := workload.Request{
				ID: slot*10 + k, Src: groundEP(0), Dst: groundEP(1),
				ArrivalSlot: slot, StartSlot: slot, EndSlot: slot,
				RateMbps: 100, Valuation: 1e12, // never priced out
			}
			if _, err := ctrl.Handle(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ctrl.f1 <= cfg.InitialF1 || ctrl.f2 <= cfg.InitialF2 {
		t.Errorf("parameters not scaled up under 5x predicted load: F1=%v F2=%v", ctrl.f1, ctrl.f2)
	}
}

func TestClampF(t *testing.T) {
	if got := clampF(5, 1, 4); got != 4 {
		t.Errorf("clamp high = %v", got)
	}
	if got := clampF(0.1, 1, 4); got != 1 {
		t.Errorf("clamp low = %v", got)
	}
	if got := clampF(2, 1, 4); got != 2 {
		t.Errorf("clamp mid = %v", got)
	}
	if !math.IsNaN(clampF(math.NaN(), 1, 4)) {
		// NaN passes through both comparisons; documents the behaviour.
		t.Log("NaN clamps to NaN")
	}
}
