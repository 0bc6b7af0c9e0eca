package netstate

import (
	"math"
	"testing"

	"spacebooking/internal/graph"
	"spacebooking/internal/grid"
	"spacebooking/internal/topology"
)

// hopCost is the simplest cost function: every feasible edge costs 1.
func hopCost(LinkKey, graph.EdgeClass, float64, float64) float64 { return 1 }

// twoCitySites returns two ground sites with solid coverage from a
// 53-degree shell.
func twoCitySites() []grid.Site {
	return []grid.Site{
		{ID: 0, LatDeg: 40.7, LonDeg: -74.0},  // New York
		{ID: 1, LatDeg: 34.1, LonDeg: -118.2}, // Los Angeles
	}
}

func groundEP(i int) topology.Endpoint {
	return topology.Endpoint{Kind: topology.EndpointGround, Index: i}
}

// findRoutableSlot returns the first slot where both endpoints see
// satellites.
func findRoutableSlot(t *testing.T, s *State, src, dst topology.Endpoint) int {
	t.Helper()
	return findRoutableSlotFrom(t, s, src, dst, 0)
}

// findRoutableSlotFrom is findRoutableSlot over the slots from `from` on.
func findRoutableSlotFrom(t *testing.T, s *State, src, dst topology.Endpoint, from int) int {
	t.Helper()
	for slot := from; slot < s.Provider().Horizon(); slot++ {
		sv, err := s.Provider().VisibleSats(src, slot)
		if err != nil {
			t.Fatal(err)
		}
		dv, err := s.Provider().VisibleSats(dst, slot)
		if err != nil {
			t.Fatal(err)
		}
		if len(sv) > 0 && len(dv) > 0 {
			return slot
		}
	}
	t.Skip("no slot with visibility for both endpoints")
	return -1
}

func TestNewViewErrors(t *testing.T) {
	s := newTestState(t, twoCitySites())
	if _, err := NewView(nil, 0, groundEP(0), groundEP(1), 100, hopCost); err == nil {
		t.Error("nil state should error")
	}
	if _, err := NewView(s, 0, groundEP(0), groundEP(1), 100, nil); err == nil {
		t.Error("nil cost should error")
	}
	if _, err := NewView(s, 0, groundEP(0), groundEP(1), 0, hopCost); err == nil {
		t.Error("zero demand should error")
	}
	if _, err := NewView(s, -1, groundEP(0), groundEP(1), 100, hopCost); err == nil {
		t.Error("bad slot should error")
	}
	if _, err := NewView(s, 0, groundEP(9), groundEP(1), 100, hopCost); err == nil {
		t.Error("bad endpoint should error")
	}
}

func TestViewStructure(t *testing.T) {
	s := newTestState(t, twoCitySites())
	slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
	v, err := NewView(s, slot, groundEP(0), groundEP(1), 100, hopCost)
	if err != nil {
		t.Fatal(err)
	}
	numSats := s.Provider().NumSats()
	if v.N() != numSats+2 {
		t.Errorf("N = %d, want %d", v.N(), numSats+2)
	}
	if v.SrcNode() != numSats || v.DstNode() != numSats+1 {
		t.Errorf("src/dst nodes = %d/%d", v.SrcNode(), v.DstNode())
	}

	// Source neighbors are exactly the visible satellites, via USL edges.
	srcVis, err := s.Provider().VisibleSats(groundEP(0), slot)
	if err != nil {
		t.Fatal(err)
	}
	var fromSrc []int
	v.VisitNeighbors(v.SrcNode(), func(e graph.Edge) bool {
		if e.Class != graph.ClassUSL {
			t.Errorf("source edge class = %v, want USL", e.Class)
		}
		fromSrc = append(fromSrc, e.To)
		return true
	})
	if len(fromSrc) != len(srcVis) {
		t.Errorf("source degree = %d, want %d", len(fromSrc), len(srcVis))
	}

	// Destination is a sink.
	v.VisitNeighbors(v.DstNode(), func(graph.Edge) bool {
		t.Error("destination must have no outgoing edges")
		return false
	})

	// A satellite's neighbors are its ISL grid plus possibly the dst.
	sat := srcVis[0]
	islCount, uslCount := 0, 0
	v.VisitNeighbors(sat, func(e graph.Edge) bool {
		switch e.Class {
		case graph.ClassISL:
			islCount++
		case graph.ClassUSL:
			uslCount++
			if e.To != v.DstNode() {
				t.Errorf("satellite USL edge to %d, want dst node", e.To)
			}
		}
		return true
	})
	if islCount != len(s.Provider().ISLNeighbors(sat)) {
		t.Errorf("ISL degree = %d, want %d", islCount, len(s.Provider().ISLNeighbors(sat)))
	}
}

func TestViewEndToEndRouting(t *testing.T) {
	s := newTestState(t, twoCitySites())
	slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
	v, err := NewView(s, slot, groundEP(0), groundEP(1), 100, hopCost)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := graph.ShortestPath(v, v.SrcNode(), v.DstNode(), nil)
	if !ok {
		t.Fatal("no route between New York and Los Angeles")
	}
	// Path must start at src, end at dst, with USL first and last hops.
	if p.Nodes[0] != v.SrcNode() || p.Nodes[len(p.Nodes)-1] != v.DstNode() {
		t.Errorf("path endpoints wrong: %v", p.Nodes)
	}
	if p.Edges[0].Class != graph.ClassUSL || p.Edges[len(p.Edges)-1].Class != graph.ClassUSL {
		t.Error("first/last hops must be USLs")
	}
	for _, e := range p.Edges[1 : len(p.Edges)-1] {
		if e.Class != graph.ClassISL {
			t.Error("interior hops must be ISLs")
		}
	}
}

func TestViewMasksSaturatedLinks(t *testing.T) {
	s := newTestState(t, twoCitySites())
	slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
	srcVis, err := s.Provider().VisibleSats(groundEP(0), slot)
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the USL from the source site to the first visible satellite.
	srcGID := s.Provider().GlobalID(groundEP(0))
	key := MakeLinkKey(srcGID, srcVis[0])
	if err := s.ReserveLink(key, slot, 3950); err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, slot, groundEP(0), groundEP(1), 100, hopCost)
	if err != nil {
		t.Fatal(err)
	}
	v.VisitNeighbors(v.SrcNode(), func(e graph.Edge) bool {
		if e.To == srcVis[0] && !math.IsInf(e.Cost, 1) {
			t.Error("saturated USL offered with finite cost")
		}
		return true
	})
	// A 4000-demand view masks every USL (capacity 4000, residual 50).
	v2, err := NewView(s, slot, groundEP(0), groundEP(1), 4000, hopCost)
	if err != nil {
		t.Fatal(err)
	}
	v2.VisitNeighbors(v2.SrcNode(), func(e graph.Edge) bool {
		if e.To == srcVis[0] && !math.IsInf(e.Cost, 1) {
			t.Error("link with insufficient residual offered")
		}
		return true
	})
}

func TestViewPathConsumptions(t *testing.T) {
	s := newTestState(t, twoCitySites())
	slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
	v, err := NewView(s, slot, groundEP(0), groundEP(1), 800, hopCost)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := graph.ShortestPath(v, v.SrcNode(), v.DstNode(), nil)
	if !ok {
		t.Fatal("no route")
	}
	cons := v.PathConsumptions(p)
	if len(cons) != len(p.Nodes)-2 {
		t.Fatalf("consumptions = %d, want %d (one per transited satellite)", len(cons), len(p.Nodes)-2)
	}
	cfg := DefaultEnergyConfig()
	slotSec := s.Provider().Config().SlotSeconds
	mb := 800 * slotSec / 8
	// Ingress gateway: USL rx + ISL tx (or USL tx if single-sat path).
	first := cons[0]
	if first.Slot != slot {
		t.Errorf("consumption slot = %d", first.Slot)
	}
	if len(cons) > 1 {
		wantIngress := mb * (cfg.USLRxJPerMB + cfg.ISLTxJPerMB)
		if math.Abs(first.Joules-wantIngress) > 1e-9 {
			t.Errorf("ingress energy = %v, want %v", first.Joules, wantIngress)
		}
		wantEgress := mb * (cfg.ISLRxJPerMB + cfg.USLTxJPerMB)
		last := cons[len(cons)-1]
		if math.Abs(last.Joules-wantEgress) > 1e-9 {
			t.Errorf("egress energy = %v, want %v", last.Joules, wantEgress)
		}
		wantRelay := mb * (cfg.ISLRxJPerMB + cfg.ISLTxJPerMB)
		for _, c := range cons[1 : len(cons)-1] {
			if math.Abs(c.Joules-wantRelay) > 1e-9 {
				t.Errorf("relay energy = %v, want %v", c.Joules, wantRelay)
			}
		}
	}
}

// TestViewReservePathBandwidth reserves a path found on the generic View
// through a transaction, as the reference branch of RouteSlot does.
func TestViewReservePathBandwidth(t *testing.T) {
	s := newTestState(t, twoCitySites())
	slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
	v, err := NewView(s, slot, groundEP(0), groundEP(1), 500, hopCost)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := graph.ShortestPath(v, v.SrcNode(), v.DstNode(), nil)
	if !ok {
		t.Fatal("no route")
	}
	txn := s.Begin()
	if err := txn.ReservePath(v, p); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	// Every link of the path now shows 500 Mbps used in this slot.
	for i := 0; i < len(p.Nodes)-1; i++ {
		key := v.LinkKeyFor(p.Nodes[i], p.Nodes[i+1])
		if got := s.LinkUsedMbps(key, slot); got != 500 {
			t.Errorf("link %d: used = %v, want 500", i, got)
		}
	}
}
