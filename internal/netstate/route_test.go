package netstate

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"spacebooking/internal/graph"
	"spacebooking/internal/grid"
	"spacebooking/internal/obs"
	"spacebooking/internal/workload"
)

// slotSnapshot is everything one slot step can touch: the reservation of
// every ISL and of every USL the two endpoints can use in the slot, and
// every battery's ledger over the horizon, as bits.
type slotSnapshot struct {
	links     map[LinkKey]float64
	batteries [][]uint64
}

func takeSlotSnapshot(t *testing.T, s *State, slot int) slotSnapshot {
	t.Helper()
	prov := s.Provider()
	snap := slotSnapshot{links: map[LinkKey]float64{}}
	for sat := 0; sat < prov.NumSats(); sat++ {
		for _, to := range prov.ISLNeighbors(sat) {
			key := MakeLinkKey(sat, to)
			snap.links[key] = s.LinkUsedMbps(key, slot)
		}
		b := s.Battery(sat)
		bits := make([]uint64, 0, 2*b.Horizon())
		for u := 0; u < b.Horizon(); u++ {
			bits = append(bits, math.Float64bits(b.DeficitAt(u)), math.Float64bits(b.SolarRemainingAt(u)))
		}
		snap.batteries = append(snap.batteries, bits)
	}
	for site := 0; site < 2; site++ {
		vis, err := prov.VisibleSats(groundEP(site), slot)
		if err != nil {
			t.Fatal(err)
		}
		gid := prov.GlobalID(groundEP(site))
		for _, sat := range vis {
			for _, key := range []LinkKey{MakeLinkKey(gid, sat), MakeLinkKey(sat, gid)} {
				snap.links[key] = s.LinkUsedMbps(key, slot)
			}
		}
	}
	return snap
}

// sharedSat returns the first slot in which one satellite sees both
// ground sites, and the first such satellite the source sees.
func sharedSat(t *testing.T, s *State) (slot, sat int) {
	t.Helper()
	for slot := 0; slot < s.Provider().Horizon(); slot++ {
		a, err := s.Provider().VisibleSats(groundEP(0), slot)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Provider().VisibleSats(groundEP(1), slot)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range a {
			for _, y := range b {
				if x == y {
					return slot, x
				}
			}
		}
	}
	t.Skip("no satellite sees both sites")
	return -1, -1
}

// TestRouteSlotOutcomes drives the one slot step into each of its four
// outcomes on a loaded ledger, on the flat scratch and on the reference
// scratch: both must return the same outcome, path and error and leave
// the same ledger, and after Rollback every battery and every link cell
// must hold its pre-call bits — a loaded cell the routed path shares
// included — with the invariants intact. Only a routed slot touches a link; a refused
// draw names its satellite and is blamed on it. Both scratches leave the
// same link blame and feed the same rejection tracker, also when a
// search relaxes a saturated ISL from both incoming-class states of its
// satellite (and so reports it twice).
func TestRouteSlotOutcomes(t *testing.T) {
	weighted := func(node int, in, out graph.EdgeClass) float64 { return 0.25 * float64(node%5) }
	const loadMbps = 123.456
	// Two sites 130 km apart, so that one satellite sees both.
	nearSites := []grid.Site{
		{ID: 0, LatDeg: 40.7, LonDeg: -74.0}, // New York
		{ID: 1, LatDeg: 39.9, LonDeg: -75.2}, // Philadelphia
	}

	for _, tc := range []struct {
		name          string
		want          SlotOutcome
		demand        float64
		spent, budget float64
		transit       graph.TransitCostFunc
		drain         bool
		// twoRoles, when positive, makes the path visit one satellite as
		// ingress gateway and again as egress gateway (every other
		// gateway role and the single-satellite hop are masked), and
		// leaves that satellite room for its larger draw plus twoRoles
		// times its smaller one: each draw fits alone, both do not.
		twoRoles float64
		// saturate fills one ISL out of the first satellite the source
		// sees, and the search refuses every egress, so it settles that
		// satellite from both incoming classes and ends without a path.
		saturate bool
	}{
		{name: "routed", want: SlotRouted, demand: 777.7, budget: math.Inf(1), transit: weighted},
		// No USL carries one and a half times its capacity.
		{name: "no-path", want: SlotNoPath, demand: 6000, budget: math.Inf(1), transit: weighted},
		// The shortest path has two unit-cost edges at least.
		{name: "budget-pruned", want: SlotBudgetPruned, demand: 777.7, spent: 1, budget: 2, transit: weighted},
		// Nothing masks the drained satellites, so a battery refuses the path's draws.
		{name: "energy-infeasible", want: SlotEnergyInfeasible, demand: 777.7, budget: math.Inf(1), drain: true},
		{name: "two-roles", want: SlotEnergyInfeasible, demand: 777.7, budget: math.Inf(1), twoRoles: 0.5},
		{name: "two-roles-tight", want: SlotEnergyInfeasible, demand: 777.7, budget: math.Inf(1), twoRoles: 0.999},
		{name: "saturated-twice", want: SlotNoPath, demand: 777.7, budget: math.Inf(1), transit: weighted, saturate: true},
	} {
		type result struct {
			path       graph.Path
			outcome    SlotOutcome
			err        string
			after      slotSnapshot
			blame      LinkKey
			blameUtil  float64
			charged    [2]float64 // after AttributeRejection: link, battery tracker totals
			rejections obs.TopKSnapshot
		}
		var results []result
		for _, sc := range []*SearchScratch{NewSearchScratch(), NewReferenceScratch()} {
			s := newTestState(t, twoCitySites())
			slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
			search := &SlotSearch{EdgeCost: hopCost, Transit: tc.transit}
			twoRoleSat := -1
			if tc.twoRoles > 0 {
				s = newTestState(t, nearSites)
				slot, twoRoleSat = sharedSat(t, s)
				search.Transit = func(node int, in, out graph.EdgeClass) float64 {
					gateway := in == graph.ClassUSL || out == graph.ClassUSL
					if gateway && (node != twoRoleSat || in == out) {
						return math.Inf(1)
					}
					return 0
				}
			}
			s.EnableHotspots(obs.New(), 4)

			// Load the ledger through the same step: the cells and batteries
			// of the path it takes are then no longer idle.
			txn := s.Begin()
			if _, outcome, err := sc.RouteSlot(txn, slot, groundEP(0), groundEP(1), loadMbps, search, 0, math.Inf(1)); outcome != SlotRouted {
				t.Fatalf("%s: loading the ledger: outcome %d, err %v", tc.name, outcome, err)
			}
			txn.Commit()
			if tc.drain {
				for sat := 0; sat < s.Provider().NumSats(); sat++ {
					b := s.Battery(sat)
					room := b.CapacityJ() - b.DeficitAt(slot) - 500
					if err := b.Consume(slot, b.SolarRemainingAt(slot)+room); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tc.twoRoles > 0 {
				cfg, secs := s.EnergyConfig(), s.Provider().Config().SlotSeconds
				ingress := cfg.TransitEnergyJ(graph.ClassUSL, graph.ClassISL, tc.demand, secs)
				egress := cfg.TransitEnergyJ(graph.ClassISL, graph.ClassUSL, tc.demand, secs)
				b := s.Battery(twoRoleSat)
				left := max(ingress, egress) + tc.twoRoles*min(ingress, egress)
				if err := b.Consume(slot, b.SolarRemainingAt(slot)+b.CapacityJ()-b.DeficitAt(slot)-left); err != nil {
					t.Fatal(err)
				}
			}

			saturated := LinkKey(0)
			if tc.saturate {
				vis, err := s.Provider().VisibleSats(groundEP(0), slot)
				if err != nil {
					t.Fatal(err)
				}
				saturated = MakeLinkKey(vis[0], s.Provider().ISLNeighbors(vis[0])[0])
				if _, err := s.ReserveLink(saturated, slot, s.islCapMbps-s.LinkUsedMbps(saturated, slot)); err != nil {
					t.Fatal(err)
				}
				search.Transit = func(node int, in, out graph.EdgeClass) float64 {
					if out == graph.ClassUSL {
						return math.Inf(1)
					}
					return 0
				}
			}

			before := takeSlotSnapshot(t, s, slot)
			s.BeginBlame()
			txn = s.Begin()
			path, outcome, err := sc.RouteSlot(txn, slot, groundEP(0), groundEP(1), tc.demand, search, tc.spent, tc.budget)
			if outcome != tc.want {
				t.Fatalf("%s (reference %v): outcome %d, want %d (err %v)", tc.name, sc.reference, outcome, tc.want, err)
			}
			if (err != nil) != (tc.want == SlotEnergyInfeasible) {
				t.Fatalf("%s (reference %v): err = %v", tc.name, sc.reference, err)
			}
			if tc.want == SlotEnergyInfeasible {
				blamed := s.hot.blameSat
				if !s.hot.blameSatSet || !strings.Contains(err.Error(), fmt.Sprintf("satellite %d:", blamed)) {
					t.Fatalf("%s (reference %v): blamed satellite %d (set %v), error %q", tc.name, sc.reference, blamed, s.hot.blameSatSet, err)
				}
				visits := 0
				for _, n := range path.Nodes {
					if n == twoRoleSat {
						visits++
					}
				}
				if twoRoleSat >= 0 && (visits != 2 || blamed != twoRoleSat) {
					t.Fatalf("%s (reference %v): blamed satellite %d, want the two-role satellite %d on path %v", tc.name, sc.reference, blamed, twoRoleSat, path.Nodes)
				}
			}
			if tc.saturate {
				sat := saturated.From()
				both := !sc.reference && sc.stateStamp[sat*graph.NumClasses+int(graph.ClassISL)] == sc.searchEpoch &&
					sc.stateStamp[sat*graph.NumClasses+int(graph.ClassUSL)] == sc.searchEpoch
				if (!sc.reference && !both) || !s.hot.blameLinkSet || s.hot.blameLink != saturated {
					t.Fatalf("%s (reference %v): satellite %d settled from both classes %v; blamed %v (set %v), want %v",
						tc.name, sc.reference, sat, both, s.hot.blameLink, s.hot.blameLinkSet, saturated)
				}
			}
			blame, blameUtil := s.hot.blameLink, s.hot.blameLinkUtil
			s.AttributeRejection(tc.want == SlotEnergyInfeasible)
			charged := [2]float64{s.hot.linkRejections.Snapshot().Total, s.hot.batteryRejections.Snapshot().Total}
			if tc.saturate && charged != [2]float64{1, 0} {
				t.Fatalf("%s (reference %v): link, battery rejections charged %v, link tracker %+v", tc.name, sc.reference, charged, s.hot.linkRejections.Snapshot())
			}
			after := takeSlotSnapshot(t, s, slot)
			if touched := !reflect.DeepEqual(before.links, after.links); touched != (tc.want == SlotRouted) {
				t.Fatalf("%s (reference %v): links touched = %v", tc.name, sc.reference, touched)
			}
			// A refused two-role slot has already drawn the ingress and
			// relay energy; the caller's Rollback takes it back.
			if touched := !reflect.DeepEqual(before.batteries, after.batteries); touched != (tc.want == SlotRouted || twoRoleSat >= 0) {
				t.Fatalf("%s (reference %v): batteries touched = %v", tc.name, sc.reference, touched)
			}
			msg := ""
			if err != nil {
				msg = err.Error()
			}
			results = append(results, result{path, outcome, msg, after, blame, blameUtil, charged, s.hot.linkRejections.Snapshot()})

			txn.Rollback()
			undone := takeSlotSnapshot(t, s, slot)
			if !reflect.DeepEqual(before.batteries, undone.batteries) {
				t.Fatalf("%s (reference %v): a battery differs from its pre-call bits after Rollback", tc.name, sc.reference)
			}
			shared := 0
			for key, was := range before.links {
				got := undone.links[key]
				if math.Float64bits(got) != math.Float64bits(was) {
					t.Fatalf("%s (reference %v): link %v holds %v after Rollback, %v before the call", tc.name, sc.reference, key, got, was)
				}
				if was != 0 && after.links[key] != was {
					shared++
				}
			}
			if tc.want == SlotRouted && shared == 0 {
				t.Fatalf("%s (reference %v): the routed path shares no cell with the loaded one; restoring a non-idle cell is untested", tc.name, sc.reference)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%s (reference %v): %v", tc.name, sc.reference, err)
			}
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Fatalf("%s: the scratches disagree\nflat:      %+v\nreference: %+v", tc.name, results[0], results[1])
		}
	}
}

// TestAdmitOutcomes drives the request loop over two active slots on
// hop-count prices. Begin runs once per slot, in order, before the slot's
// search. A valuation below the plan's price rejects with the price, the
// plan and the reason, and leaves both slots as they were; a valuation
// equal to it accepts and commits. A demand no USL carries rejects at the
// first slot with no plan, and a window past the horizon is an error.
func TestAdmitOutcomes(t *testing.T) {
	s := newTestState(t, twoCitySites())
	src, dst := groundEP(0), groundEP(1)
	first := findRoutableSlot(t, s, src, dst)
	if findRoutableSlotFrom(t, s, src, dst, first+1) != first+1 {
		t.Skip("no two routable slots in a row")
	}
	var begun []int
	search := SlotSearch{
		Begin:    func(slot int, demand float64) { begun = append(begun, slot) },
		EdgeCost: hopCost,
		Transit:  func(int, graph.EdgeClass, graph.EdgeClass) float64 { return 0 },
	}
	req := workload.Request{ID: 7, Src: src, Dst: dst, ArrivalSlot: first, StartSlot: first, EndSlot: first + 1, RateMbps: 100}
	sc := NewSearchScratch()
	before := []slotSnapshot{takeSlotSnapshot(t, s, first), takeSlotSnapshot(t, s, first+1)}

	d, err := sc.Admit(s, req, &search, 1, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted || len(d.Plan.Paths) != 2 || d.Price != float64(d.Plan.TotalHops()) ||
		d.Reason != fmt.Sprintf("plan price %.3g exceeds valuation 1", d.Price) {
		t.Fatalf("priced-out decision %+v", d)
	}
	if !reflect.DeepEqual(begun, []int{first, first + 1}) {
		t.Errorf("Begin ran for slots %v, want %v", begun, []int{first, first + 1})
	}
	for i, want := range before {
		if !reflect.DeepEqual(takeSlotSnapshot(t, s, first+i), want) {
			t.Errorf("slot %d changed by a rejected request", first+i)
		}
	}

	price := d.Price
	if d, err = sc.Admit(s, req, &search, price, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if !d.Accepted || d.Price != price || d.Reason != "" || len(d.Plan.Paths) != 2 {
		t.Fatalf("accepted decision %+v", d)
	}
	if s.CongestedLinkCount(first+1, 1) == 0 {
		t.Error("an accepted request committed no reservation")
	}

	// No USL carries one and a half times its capacity.
	req.RateMbps = 6000
	if d, err = sc.Admit(s, req, &search, math.Inf(1), math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if d.Accepted || d.Plan.Paths != nil || d.Reason != fmt.Sprintf("no feasible path at slot %d", first) {
		t.Errorf("unroutable decision %+v", d)
	}

	req.EndSlot = s.Provider().Horizon()
	if _, err := sc.Admit(s, req, &search, math.Inf(1), math.Inf(1)); err == nil {
		t.Error("a window past the horizon should be an error")
	}
}
