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
// the same ledger, and after Rollback every battery must hold its
// pre-call bits, every link cell its pre-call value — exactly where the
// cell was idle, up to the (a+r)−r rounding of a release otherwise — with
// the invariants intact. Only a routed slot touches a link; a refused
// draw names its satellite and is blamed on it.
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
	} {
		type result struct {
			path    graph.Path
			outcome SlotOutcome
			err     string
			after   slotSnapshot
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
			results = append(results, result{path, outcome, msg, after})

			txn.Rollback()
			undone := takeSlotSnapshot(t, s, slot)
			if !reflect.DeepEqual(before.batteries, undone.batteries) {
				t.Fatalf("%s (reference %v): a battery differs from its pre-call bits after Rollback", tc.name, sc.reference)
			}
			shared := 0
			for key, was := range before.links {
				got := undone.links[key]
				if was == 0 && got != 0 || math.Abs(got-was) > 4e-16*(was+tc.demand) {
					t.Fatalf("%s (reference %v): link %v holds %v after Rollback, %v before the call", tc.name, sc.reference, key, got, was)
				}
				if was != 0 && after.links[key] != was {
					shared++
				}
			}
			if tc.want == SlotRouted && shared == 0 {
				t.Fatalf("%s (reference %v): the routed path shares no cell with the loaded one; the dust bound is untested", tc.name, sc.reference)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%s (reference %v): %v", tc.name, sc.reference, err)
			}
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Fatalf("%s: the scratches disagree\nflat:      %+v %d %q\nreference: %+v %d %q",
				tc.name, results[0].path, results[0].outcome, results[0].err, results[1].path, results[1].outcome, results[1].err)
		}
	}
}
