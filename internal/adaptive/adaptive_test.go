package adaptive

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"spacebooking/internal/core"
	"spacebooking/internal/grid"
	"spacebooking/internal/netstate"
	"spacebooking/internal/pricing"
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
	state, err := netstate.New(prov, netstate.DefaultEnergyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// newOpts returns the inner CEAR's options at the paper's F1 = F2 = 1.
func newOpts(t *testing.T) core.Options {
	t.Helper()
	params, err := pricing.Derive(1, 1, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	return core.Options{Pricing: params}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, 2, newOpts(t)); err == nil {
		t.Error("nil state should error")
	}
	state := newTestState(t)
	bad := newOpts(t)
	bad.Pricing.F1 = 0
	if _, err := New(state, 2, bad); err == nil {
		t.Error("non-positive F1 should error")
	}
}

func TestControllerProcessesWorkload(t *testing.T) {
	state := newTestState(t)
	ctrl, err := New(state, 2, newOpts(t))
	if err != nil {
		t.Fatal(err)
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
	if f1 < minF || f1 > maxF || f2 < minF || f2 > maxF {
		t.Errorf("parameters escaped the clamp band: F1=%v F2=%v", f1, f2)
	}
	t.Logf("final F1=%.3f F2=%.3f, %d/%d accepted", f1, f2, accepted, len(reqs))
}

// TestControllerRelaxesWhenPricedOut runs with and without budget
// pruning: a pruned rejection ("budget-pruned at slot N") must count as
// priced out just as a plain one does.
func TestControllerRelaxesWhenPricedOut(t *testing.T) {
	for _, prune := range []bool{false, true} {
		t.Run(fmt.Sprintf("prune=%v", prune), func(t *testing.T) {
			state := newTestState(t)
			opts := newOpts(t)
			opts.PruneBudget = prune
			// The nominal rate is the offered one, so the prediction
			// term leaves the parameters alone.
			ctrl, err := New(state, 3, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Feed requests whose valuation is below any non-trivial
			// price: after the first few acceptances on the fresh
			// network, everything is priced out, so each of the three
			// closed windows relaxes F toward minF.
			pruned := 0
			for slot := 0; slot < 3*windowSlots+2; slot++ {
				for k := 0; k < 3; k++ {
					req := workload.Request{
						ID: slot*10 + k, Src: groundEP(0), Dst: groundEP(1),
						ArrivalSlot: slot, StartSlot: slot, EndSlot: slot,
						RateMbps: 1500, Valuation: 10, // far below any positive price
					}
					d, err := ctrl.Handle(req)
					if err != nil {
						t.Fatal(err)
					}
					if strings.Contains(d.Reason, "budget-pruned") {
						pruned++
					}
				}
			}
			if prune != (pruned > 0) {
				t.Errorf("%d budget-pruned rejections with pruning %v", pruned, prune)
			}
			want := 1.0
			for range 3 {
				want /= step
			}
			if ctrl.f1 != want {
				t.Errorf("F1 = %v, want %v after three relaxed windows", ctrl.f1, want)
			}
		})
	}
}

func TestControllerTightensOnDepletion(t *testing.T) {
	state := newTestState(t)
	ctrl, err := New(state, 1, newOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	// Manually drain satellites until a fifth of the fleet is depleted at
	// the first window's last slot, so the depletion trigger fires at its
	// boundary.
	numSats := state.Provider().NumSats()
	for sat := 0; sat < numSats && state.DepletedSatCount(windowSlots-1, depletedFrac) < numSats/5; sat++ {
		b := state.Battery(sat)
		drain := b.CapacityJ() * 0.95
		for slot := 0; slot < windowSlots; slot++ {
			drain += b.SolarRemainingAt(slot)
		}
		// A drain the battery cannot take is skipped.
		_ = b.Consume(0, drain)
	}
	if got := state.DepletedSatCount(windowSlots-1, depletedFrac); got < numSats/5 {
		t.Fatalf("only %d of %d satellites depleted", got, numSats)
	}
	// Light traffic at the nominal rate past the first window boundary.
	for slot := 0; slot < windowSlots+2; slot++ {
		req := workload.Request{
			ID: slot, Src: groundEP(0), Dst: groundEP(1),
			ArrivalSlot: slot, StartSlot: slot, EndSlot: slot,
			RateMbps: 100, Valuation: 1e8,
		}
		if _, err := ctrl.Handle(req); err != nil {
			t.Fatal(err)
		}
	}
	if ctrl.f2 <= 1 {
		t.Errorf("F2 = %v, expected tightening above initial 1", ctrl.f2)
	}
}

// TestMovingAveragePredictor pins the load prediction: the mean of the
// last three closed windows, the oldest evicted first.
func TestMovingAveragePredictor(t *testing.T) {
	var c Controller
	for _, tc := range []struct{ observe, want float64 }{
		{2, 2}, {4, 3}, {6, 4},
		{8, 6}, // evicts the 2
		{10, 8},
	} {
		if got := c.predictLoad(tc.observe); got != tc.want {
			t.Errorf("after observing %v: prediction %v, want %v", tc.observe, got, tc.want)
		}
	}
}

func TestPredictorScalesParameters(t *testing.T) {
	state := newTestState(t)
	ctrl, err := New(state, 1, newOpts(t)) // nominal 1 req/slot
	if err != nil {
		t.Fatal(err)
	}
	// Offer 5 req/slot — 5x nominal — so after the first window the
	// prediction far exceeds nominal and both parameters scale up.
	for slot := 0; slot < windowSlots+2; slot++ {
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
	if ctrl.f1 <= 1 || ctrl.f2 <= 1 {
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
