package offline

import (
	"sort"
	"testing"
	"time"

	"spacebooking/internal/baselines"
	"spacebooking/internal/grid"
	"spacebooking/internal/netstate"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

var testEpoch = time.Date(2026, time.July, 5, 0, 0, 0, 0, time.UTC)

func testProvider(t *testing.T) *topology.Provider {
	t.Helper()
	cfg := topology.DefaultConfig(testEpoch)
	cfg.Walker.Planes = 8
	cfg.Walker.SatsPerPlane = 12
	cfg.Walker.PhasingF = 3
	cfg.Horizon = 40
	prov, err := topology.NewProvider(cfg, []grid.Site{
		{ID: 0, LatDeg: 40.7, LonDeg: -74.0},
		{ID: 1, LatDeg: 34.1, LonDeg: -118.2},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return prov
}

func groundEP(i int) topology.Endpoint {
	return topology.Endpoint{Kind: topology.EndpointGround, Index: i}
}

func TestGreedyErrors(t *testing.T) {
	if _, err := Greedy(nil, netstate.DefaultEnergyConfig(), nil); err == nil {
		t.Error("nil provider should error")
	}
	prov := testProvider(t)
	bad := []workload.Request{{ID: 0, Src: groundEP(0), Dst: groundEP(1), StartSlot: 0, EndSlot: 9999, RateMbps: 100, Valuation: 1}}
	if _, err := Greedy(prov, netstate.DefaultEnergyConfig(), bad); err == nil {
		t.Error("invalid window should error")
	}
}

func TestGreedyEmptyWorkload(t *testing.T) {
	prov := testProvider(t)
	res, err := Greedy(prov, netstate.DefaultEnergyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Welfare != 0 || res.Accepted != 0 || res.TotalRequests != 0 {
		t.Errorf("empty workload result = %+v", res)
	}
}

func TestGreedyPrefersHighValuations(t *testing.T) {
	prov := testProvider(t)
	// Two conflicting requests that both saturate the same access link
	// (one visible satellite path each slot can carry only one 3000 Mbps
	// flow over a 4000 Mbps USL): greedy must pick the high-valuation one.
	// Find a slot where src sees satellites.
	slot := -1
	for s := 0; s < prov.Horizon(); s++ {
		sv, err := prov.VisibleSats(groundEP(0), s)
		if err != nil {
			t.Fatal(err)
		}
		dv, err := prov.VisibleSats(groundEP(1), s)
		if err != nil {
			t.Fatal(err)
		}
		if len(sv) > 0 && len(dv) > 0 {
			slot = s
			break
		}
	}
	if slot < 0 {
		t.Skip("no routable slot")
	}
	reqs := []workload.Request{
		{ID: 0, Src: groundEP(0), Dst: groundEP(1), ArrivalSlot: slot, StartSlot: slot, EndSlot: slot, RateMbps: 3000, Valuation: 1},
		{ID: 1, Src: groundEP(0), Dst: groundEP(1), ArrivalSlot: slot, StartSlot: slot, EndSlot: slot, RateMbps: 3000, Valuation: 100},
	}
	res, err := Greedy(prov, netstate.DefaultEnergyConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted == 0 {
		t.Fatal("greedy accepted nothing")
	}
	// The high-valuation request must be in the accepted welfare.
	if res.Welfare < 100 {
		t.Errorf("welfare = %v, the valuation-100 request must be served first", res.Welfare)
	}
}

func TestGreedyUpperBoundsOnlineOnSameWorkload(t *testing.T) {
	// The offline greedy sees the whole sequence sorted by value, so with
	// equal valuations it accepts at least as much as the count any
	// feasibility-only online algorithm can accept... not in general, but
	// it must at minimum accept a non-trivial share of a light workload.
	prov := testProvider(t)
	pairs := []workload.Pair{{Src: groundEP(0), Dst: groundEP(1)}}
	cfg := workload.DefaultConfig(prov.Horizon(), pairs, 5)
	cfg.ArrivalRatePerSlot = 1
	reqs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Greedy(prov, netstate.DefaultEnergyConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRequests != len(reqs) {
		t.Errorf("total = %d, want %d", res.TotalRequests, len(reqs))
	}
	if res.Accepted == 0 {
		t.Error("offline greedy accepted nothing on a light workload")
	}
	if res.Welfare != float64(res.Accepted)*2.3e9 {
		t.Errorf("welfare %v inconsistent with accepted %d", res.Welfare, res.Accepted)
	}
}

// firstRoutableSlots returns the first n consecutive slots in which both
// cities see a satellite.
func firstRoutableSlots(t *testing.T, prov *topology.Provider, n int) int {
	t.Helper()
	run := 0
	for s := 0; s < prov.Horizon(); s++ {
		sv, err := prov.VisibleSats(groundEP(0), s)
		if err != nil {
			t.Fatal(err)
		}
		dv, err := prov.VisibleSats(groundEP(1), s)
		if err != nil {
			t.Fatal(err)
		}
		if len(sv) == 0 || len(dv) == 0 {
			run = 0
			continue
		}
		if run++; run == n {
			return s - n + 1
		}
	}
	t.Skip("no run of routable slots")
	return -1
}

// TestGreedyHonoursRateVector pins the demand Greedy routes and reserves:
// δ_i(t) = RateAt(t), not the scalar RateMbps field a vector request
// leaves unset or stale.
func TestGreedyHonoursRateVector(t *testing.T) {
	prov := testProvider(t)
	start := firstRoutableSlots(t, prov, 2)
	uslCap := prov.Config().USLCapacityMbps

	// The second slot's demand fits no USL, whatever RateMbps says.
	over := []workload.Request{{
		ID: 0, Src: groundEP(0), Dst: groundEP(1), StartSlot: start, EndSlot: start + 1,
		RateMbps: 100, RateVector: []float64{100, 1.25 * uslCap}, Valuation: 10,
	}}
	res, err := Greedy(prov, netstate.DefaultEnergyConfig(), over)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 {
		t.Errorf("a request peaking at %v Mbps was admitted over %v Mbps USLs", 1.25*uslCap, uslCap)
	}

	// No scalar rate at all: the vector is the demand.
	vec := workload.Request{
		ID: 1, Src: groundEP(0), Dst: groundEP(1), StartSlot: start, EndSlot: start + 1,
		RateVector: []float64{700, 300}, Valuation: 10,
	}
	state, err := netstate.New(prov, netstate.DefaultEnergyConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	res, err = greedyOn(state, []workload.Request{vec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 {
		t.Fatalf("accepted %d, want the vector request admitted", res.Accepted)
	}
	src := prov.GlobalID(vec.Src)
	for slot := vec.StartSlot; slot <= vec.EndSlot; slot++ {
		vis, err := prov.VisibleSats(vec.Src, slot)
		if err != nil {
			t.Fatal(err)
		}
		uplink := 0.0
		for _, sat := range vis {
			uplink += state.LinkUsedMbps(netstate.MakeLinkKey(src, sat), slot)
		}
		if uplink != vec.RateAt(slot) {
			t.Errorf("slot %d: %v Mbps reserved on the source's uplinks, want %v", slot, uplink, vec.RateAt(slot))
		}
	}
}

// TestGreedyIsValuationOrderedSSP feeds an SSP instance the stream sorted
// by hand and requires Greedy to accept exactly that welfare and count —
// under the certified cut bound — on the three streams the bracket test
// uses, with valuations spread so that the order matters.
func TestGreedyIsValuationOrderedSSP(t *testing.T) {
	prov := testProvider(t)
	pairs := []workload.Pair{{Src: groundEP(0), Dst: groundEP(1)}}
	for _, rate := range []float64{0.5, 2, 5} {
		cfg := workload.DefaultConfig(prov.Horizon(), pairs, 13)
		cfg.ArrivalRatePerSlot = rate
		reqs, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			reqs[i].Valuation = float64(1+i%7) * 1e9
		}
		got, err := Greedy(prov, netstate.DefaultEnergyConfig(), reqs)
		if err != nil {
			t.Fatal(err)
		}

		sorted := append([]workload.Request(nil), reqs...)
		sort.SliceStable(sorted, func(a, b int) bool {
			ra, rb := sorted[a], sorted[b]
			if ra.Valuation != rb.Valuation {
				return ra.Valuation > rb.Valuation
			}
			return ra.RateMbps*float64(ra.DurationSlots()) < rb.RateMbps*float64(rb.DurationSlots())
		})
		state, err := netstate.New(prov, netstate.DefaultEnergyConfig(), false)
		if err != nil {
			t.Fatal(err)
		}
		ssp, err := baselines.NewSSP(state)
		if err != nil {
			t.Fatal(err)
		}
		want := Result{TotalRequests: len(reqs)}
		for _, req := range sorted {
			d, err := ssp.Handle(req)
			if err != nil {
				t.Fatal(err)
			}
			if d.Accepted {
				want.Accepted++
				want.Welfare += req.Valuation
			}
		}
		if got != want || got.Accepted == 0 || got.Accepted == len(reqs) {
			t.Errorf("rate %v: Greedy = %+v, SSP over the sorted stream = %+v (want equal, some but not all accepted)", rate, got, want)
		}
		ub, err := CutUpperBound(prov, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if ub < got.Welfare {
			t.Errorf("rate %v: cut bound %v below Greedy's welfare %v", rate, ub, got.Welfare)
		}
	}
}
