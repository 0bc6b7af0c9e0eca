package netstate

import (
	"math"
	"testing"

	"spacebooking/internal/graph"
)

// materialize builds an explicit graph.Graph with the exact edges and
// costs the implicit View exposes.
func materialize(v *View) *graph.Graph {
	g := graph.New(v.N())
	for node := 0; node < v.N(); node++ {
		v.VisitNeighbors(node, func(e graph.Edge) bool {
			cost := e.Cost
			if math.IsInf(cost, 1) {
				return true // explicit graph simply omits masked edges
			}
			_ = g.AddEdge(node, e.To, e.Class, cost)
			return true
		})
	}
	return g
}

// TestViewEquivalentToExplicitGraph cross-validates the implicit
// adjacency against a materialized copy: identical shortest paths for
// several cost regimes, with and without transit costs.
func TestViewEquivalentToExplicitGraph(t *testing.T) {
	s := newTestState(t, twoCitySites())
	slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))

	costFns := map[string]EdgeCostFunc{
		"unit": hopCost,
		"utilization-weighted": func(key LinkKey, class graph.EdgeClass, capacity, utilization float64) float64 {
			return 1 + 100*utilization
		},
		"class-dependent": func(key LinkKey, class graph.EdgeClass, capacity, utilization float64) float64 {
			if class == graph.ClassUSL {
				return 7
			}
			return 2
		},
	}

	// Put some load on the network so utilization-based costs vary.
	srcGID := s.Provider().GlobalID(groundEP(0))
	vis, err := s.Provider().VisibleSats(groundEP(0), slot)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReserveLink(MakeLinkKey(srcGID, vis[0]), slot, 2000); err != nil {
		t.Fatal(err)
	}
	if err := s.ReserveLink(MakeLinkKey(vis[0], s.Provider().ISLNeighbors(vis[0])[0]), slot, 9000); err != nil {
		t.Fatal(err)
	}

	transits := map[string]graph.TransitCostFunc{
		"none": nil,
		"battery-weighted": func(node int, in, out graph.EdgeClass) float64 {
			return 3 * s.Battery(node).UtilizationAt(slot)
		},
	}

	for costName, costFn := range costFns {
		for transitName, transit := range transits {
			v, err := NewView(s, slot, groundEP(0), groundEP(1), 500, costFn)
			if err != nil {
				t.Fatal(err)
			}
			explicit := materialize(v)

			pImp, okImp := graph.ShortestPath(v, v.SrcNode(), v.DstNode(), transit)
			pExp, okExp := graph.ShortestPath(explicit, v.SrcNode(), v.DstNode(), transit)
			if okImp != okExp {
				t.Fatalf("%s/%s: reachability differs (implicit %v, explicit %v)",
					costName, transitName, okImp, okExp)
			}
			if !okImp {
				continue
			}
			if math.Abs(pImp.Cost-pExp.Cost) > 1e-9 {
				t.Fatalf("%s/%s: cost differs: implicit %v, explicit %v",
					costName, transitName, pImp.Cost, pExp.Cost)
			}
		}
	}
}
