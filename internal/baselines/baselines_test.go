package baselines

import (
	"math"
	"strings"
	"testing"
	"time"

	"spacebooking/internal/graph"
	"spacebooking/internal/grid"
	"spacebooking/internal/netstate"
	"spacebooking/internal/router"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

var testEpoch = time.Date(2026, time.July, 5, 0, 0, 0, 0, time.UTC)

func groundEP(i int) topology.Endpoint {
	return topology.Endpoint{Kind: topology.EndpointGround, Index: i}
}

// newBaselineState builds the strict-battery state baselines run on:
// like CEAR they must respect constraint (7c).
func newBaselineState(t *testing.T) *netstate.State {
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
	state, err := netstate.New(prov, netstate.DefaultEnergyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return state
}

func routableRequest(t *testing.T, state *netstate.State, id int, rate float64, durSlots int) workload.Request {
	t.Helper()
	prov := state.Provider()
	for start := 0; start+durSlots <= prov.Horizon(); start++ {
		ok := true
		for slot := start; slot < start+durSlots; slot++ {
			sv, err := prov.VisibleSats(groundEP(0), slot)
			if err != nil {
				t.Fatal(err)
			}
			dv, err := prov.VisibleSats(groundEP(1), slot)
			if err != nil {
				t.Fatal(err)
			}
			if len(sv) == 0 || len(dv) == 0 {
				ok = false
				break
			}
		}
		if ok {
			return workload.Request{
				ID: id, Src: groundEP(0), Dst: groundEP(1),
				ArrivalSlot: start, StartSlot: start, EndSlot: start + durSlots - 1,
				RateMbps: rate, Valuation: 2.3e9,
			}
		}
	}
	t.Skip("no routable window")
	return workload.Request{}
}

// allBaselines builds SSP, ECARS, ERU and ERA over one state, in that
// order.
func allBaselines(t *testing.T, state *netstate.State) []router.Algorithm {
	t.Helper()
	ssp, err := NewSSP(state)
	if err != nil {
		t.Fatal(err)
	}
	ecars, err := NewECARS(state)
	if err != nil {
		t.Fatal(err)
	}
	eru, err := NewERU(state)
	if err != nil {
		t.Fatal(err)
	}
	era, err := NewERA(state)
	if err != nil {
		t.Fatal(err)
	}
	return []router.Algorithm{ssp, ecars, eru, era}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := NewSSP(nil); err == nil {
		t.Error("nil state should error")
	}
}

func TestAllBaselinesAcceptOnEmptyNetwork(t *testing.T) {
	for i, name := range []string{"SSP", "ECARS", "ERU", "ERA"} {
		t.Run(name, func(t *testing.T) {
			state := newBaselineState(t)
			alg := allBaselines(t, state)[i]
			// One slot: ERU's 360 J threshold would otherwise prune the
			// satellites loaded by the request's own earlier slots —
			// faithful but not what this test is about.
			req := routableRequest(t, state, 1, 1000, 1)
			d, err := alg.Handle(req)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Accepted {
				t.Fatalf("%s rejected on empty network: %s", name, d.Reason)
			}
			if d.Price != 0 {
				t.Errorf("%s quoted price %v, baselines are free", name, d.Price)
			}
			if len(d.Plan.Paths) != req.DurationSlots() {
				t.Errorf("plan paths = %d", len(d.Plan.Paths))
			}
			// At threshold 1 every link holding a reservation counts.
			if state.CongestedLinkCount(req.StartSlot, 1) == 0 {
				t.Error("no reservations recorded")
			}
		})
	}
}

func TestSSPPicksMinHop(t *testing.T) {
	state := newBaselineState(t)
	ssp, err := NewSSP(state)
	if err != nil {
		t.Fatal(err)
	}
	req := routableRequest(t, state, 1, 500, 1)
	d, err := ssp.Handle(req)
	if err != nil || !d.Accepted {
		t.Fatalf("%v %v", err, d.Reason)
	}
	// Recompute the min-hop path — the shortest one under unit edge costs —
	// on a fresh view with the same demand and verify SSP's path has the
	// same hop count. (Bandwidth reserved by the accept does not saturate
	// any link at 500 Mbps.)
	view, err := netstate.NewView(state, req.StartSlot, req.Src, req.Dst, req.RateMbps,
		func(netstate.LinkKey, graph.EdgeClass, float64, float64) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	p, ok := graph.ShortestPath(view, view.SrcNode(), view.DstNode(), nil)
	if !ok {
		t.Fatal("no min-hop path")
	}
	if d.Plan.Paths[0].Path.Hops() != p.Hops() {
		t.Errorf("SSP hops = %d, min-hop = %d", d.Plan.Paths[0].Path.Hops(), p.Hops())
	}
}

func TestBaselineRejectsWhenNoPath(t *testing.T) {
	state := newBaselineState(t)
	ssp, err := NewSSP(state)
	if err != nil {
		t.Fatal(err)
	}
	req := routableRequest(t, state, 1, 3000, 1)
	prov := state.Provider()
	vis, err := prov.VisibleSats(req.Src, req.StartSlot)
	if err != nil {
		t.Fatal(err)
	}
	srcGID := prov.GlobalID(req.Src)
	for _, sat := range vis {
		if _, err := state.ReserveLink(netstate.MakeLinkKey(srcGID, sat), req.StartSlot, 3500); err != nil {
			t.Fatal(err)
		}
	}
	linksBefore := state.CongestedLinkCount(req.StartSlot, 1)
	d, err := ssp.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted {
		t.Fatal("accepted with saturated access links")
	}
	if !strings.Contains(d.Reason, "no feasible path") {
		t.Errorf("reason = %q", d.Reason)
	}
	if state.CongestedLinkCount(req.StartSlot, 1) != linksBefore {
		t.Error("rejection mutated state")
	}
}

func TestBaselinesStopAtEnergyFeasibilityEdge(t *testing.T) {
	// Baselines greedily accept until the physical constraints bind, but
	// never past them: batteries must stay within [0, capacity] even
	// under absurd load (constraint (7c) is part of the problem, not a
	// CEAR feature).
	state := newBaselineState(t)
	ssp, err := NewSSP(state)
	if err != nil {
		t.Fatal(err)
	}
	base := routableRequest(t, state, 0, 2000, 5)
	accepted := 0
	for i := 0; i < 30; i++ {
		req := base
		req.ID = i
		d, err := ssp.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		if d.Accepted {
			accepted++
		}
	}
	if accepted < 2 {
		t.Fatalf("accepted only %d requests", accepted)
	}
	// Batteries never report below empty even under absurd load.
	for sat := 0; sat < state.Provider().NumSats(); sat++ {
		b := state.Battery(sat)
		for slot := 0; slot < state.Provider().Horizon(); slot++ {
			if b.LevelAt(slot) < -1e-9 {
				t.Fatalf("battery %d below empty at slot %d", sat, slot)
			}
		}
	}
}

func TestOverThresholdDetection(t *testing.T) {
	state := newBaselineState(t)
	b, err := NewERU(state)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold: 5e-6 W·min/Mbit * 60 J * 20000 Mbps * 60 s = 360 J.
	if math.Abs(b.thresholdJ-360) > 1e-9 {
		t.Fatalf("thresholdJ = %v, want 360", b.thresholdJ)
	}
	if b.overThreshold(0, 0) {
		t.Error("fresh satellite reported over threshold")
	}
	bat := state.Battery(0)
	if err := bat.Consume(0, 500+bat.SolarRemainingAt(0)); err != nil {
		t.Fatal(err)
	}
	if !b.overThreshold(0, 0) {
		t.Errorf("deficit %v J should exceed threshold", bat.DeficitAt(0))
	}
}

func TestERUPrunesOverThresholdSatellites(t *testing.T) {
	state := newBaselineState(t)
	eru, err := NewERU(state)
	if err != nil {
		t.Fatal(err)
	}
	req := routableRequest(t, state, 1, 1000, 1)
	d, err := eru.Handle(req)
	if err != nil || !d.Accepted {
		t.Fatalf("setup: %v %v", err, d.Reason)
	}
	// All transited satellites now carry deficits if the slot was dark;
	// force one well over threshold and re-route: the pruned satellite
	// must not appear.
	relay := d.Plan.Paths[0].Path.Nodes[1]
	bat := state.Battery(relay)
	if err := bat.Consume(req.StartSlot, 5000+bat.SolarRemainingAt(req.StartSlot)); err != nil {
		t.Fatal(err)
	}
	if !eru.overThreshold(relay, req.StartSlot) {
		t.Fatal("relay not over threshold after drain")
	}
	req2 := req
	req2.ID = 2
	d2, err := eru.Handle(req2)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Accepted {
		return // pruning made the request infeasible; acceptable ERU behaviour
	}
	for _, n := range d2.Plan.Paths[0].Path.Nodes[1 : len(d2.Plan.Paths[0].Path.Nodes)-1] {
		if n == relay {
			t.Error("ERU routed through a pruned satellite")
		}
	}
}

func TestERAReweightsOverThresholdSatellites(t *testing.T) {
	state := newBaselineState(t)
	era, err := NewERA(state)
	if err != nil {
		t.Fatal(err)
	}
	// Drain satellite 5 over threshold at slot 0 and compare its edge
	// cost with a fresh satellite's.
	bat := state.Battery(5)
	if err := bat.Consume(0, 5000+bat.SolarRemainingAt(0)); err != nil {
		t.Fatal(err)
	}
	era.curSlot = 0
	cost := era.search.EdgeCost
	over := cost(netstate.MakeLinkKey(5, 6), graph.ClassISL, 20000, 0.5)
	fresh := cost(netstate.MakeLinkKey(7, 8), graph.ClassISL, 20000, 0.5)
	// Over threshold: 0.15*0.5 + (1-0.15-0.7) = 0.225.
	// Fresh: 0.3*0.5 + 0.35 = 0.5.
	if math.Abs(over-0.225) > 1e-9 {
		t.Errorf("over-threshold edge cost = %v, want 0.225", over)
	}
	if math.Abs(fresh-0.5) > 1e-9 {
		t.Errorf("fresh edge cost = %v, want 0.5", fresh)
	}
}

func TestECARSEdgeCostLinear(t *testing.T) {
	state := newBaselineState(t)
	ecars, err := NewECARS(state)
	if err != nil {
		t.Fatal(err)
	}
	ecars.curSlot = 0
	cost := ecars.search.EdgeCost
	// 0.3*λ + 0.35 hop bias.
	if got := cost(netstate.MakeLinkKey(0, 1), graph.ClassISL, 20000, 0); math.Abs(got-0.35) > 1e-9 {
		t.Errorf("cost at λ=0: %v, want 0.35", got)
	}
	if got := cost(netstate.MakeLinkKey(0, 1), graph.ClassISL, 20000, 1); math.Abs(got-0.65) > 1e-9 {
		t.Errorf("cost at λ=1: %v, want 0.65", got)
	}
}

func TestHandleArgumentErrors(t *testing.T) {
	state := newBaselineState(t)
	ssp, err := NewSSP(state)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ssp.Handle(workload.Request{Src: groundEP(0), Dst: groundEP(1), RateMbps: 0, EndSlot: 1}); err == nil {
		t.Error("zero rate should error")
	}
	if _, err := ssp.Handle(workload.Request{Src: groundEP(0), Dst: groundEP(1), RateMbps: 10, StartSlot: 0, EndSlot: 9999}); err == nil {
		t.Error("bad window should error")
	}
}
