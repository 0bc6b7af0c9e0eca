package netstate

import (
	"math"
	"reflect"
	"testing"

	"spacebooking/internal/graph"
)

// TestBuildViewErrors mirrors TestNewViewErrors: the flat builder must
// reject exactly the inputs the generic constructor rejects.
func TestBuildViewErrors(t *testing.T) {
	s := newTestState(t, twoCitySites(), false)
	sc := NewSearchScratch()
	if _, err := sc.BuildView(nil, 0, groundEP(0), groundEP(1), 100, hopCost); err == nil {
		t.Error("nil state should error")
	}
	if _, err := sc.BuildView(s, 0, groundEP(0), groundEP(1), 100, nil); err == nil {
		t.Error("nil cost should error")
	}
	if _, err := sc.BuildView(s, 0, groundEP(0), groundEP(1), 0, hopCost); err == nil {
		t.Error("zero demand should error")
	}
	if _, err := sc.BuildView(s, -1, groundEP(0), groundEP(1), 100, hopCost); err == nil {
		t.Error("bad slot should error")
	}
	if _, err := sc.BuildView(s, 0, groundEP(9), groundEP(1), 100, hopCost); err == nil {
		t.Error("bad endpoint should error")
	}
}

// TestFlatViewMirrorsGenericView checks node numbering, link keys and
// per-edge prices against the generic View on a live slot, then runs
// both search kernels on both representations and requires identical
// paths and consumption vectors. One scratch serves every comparison,
// so the test also covers epoch-stamped cache reuse across views. Each
// trial ends by committing its path at a rate that fills the USLs after
// two trials, so later trials compare utilization-dependent prices and
// masked edges read through the ledger's rows (flat) and through
// LinkKey access (generic).
func TestFlatViewMirrorsGenericView(t *testing.T) {
	s := newTestState(t, twoCitySites(), false)
	slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
	sc := NewSearchScratch()

	transit := func(node int, in, out graph.EdgeClass) float64 {
		c := float64(node%5) * 0.25
		if in == graph.ClassUSL {
			c *= 2
		}
		return c
	}

	loadCost := func(_ LinkKey, _ graph.EdgeClass, _, utilization float64) float64 {
		return 1 + 100*utilization
	}
	for trial := 0; trial < 4; trial++ {
		demand := 100 * float64(trial+1)
		gv, err := NewView(s, slot, groundEP(0), groundEP(1), demand, loadCost)
		if err != nil {
			t.Fatal(err)
		}
		fv, err := sc.BuildView(s, slot, groundEP(0), groundEP(1), demand, loadCost)
		if err != nil {
			t.Fatal(err)
		}
		if fv.N() != gv.N() || fv.SrcNode() != gv.SrcNode() || fv.DstNode() != gv.DstNode() {
			t.Fatalf("shape mismatch: flat (%d,%d,%d) vs generic (%d,%d,%d)",
				fv.N(), fv.SrcNode(), fv.DstNode(), gv.N(), gv.SrcNode(), gv.DstNode())
		}
		if fv.Slot() != gv.Slot() || fv.DemandMbps() != gv.DemandMbps() {
			t.Fatalf("slot/demand mismatch")
		}

		// Every edge the generic view offers must appear in the flat walk
		// with the same key and price.
		for node := 0; node < gv.N(); node++ {
			type edgeSeen struct {
				to    int
				class graph.EdgeClass
				cost  float64
				key   LinkKey
			}
			var want []edgeSeen
			gv.VisitNeighbors(node, func(e graph.Edge) bool {
				want = append(want, edgeSeen{e.To, e.Class, e.Cost, gv.LinkKeyFor(node, e.To)})
				return true
			})
			var got []edgeSeen
			fv.VisitNeighbors(node, func(e graph.Edge) bool {
				got = append(got, edgeSeen{e.To, e.Class, e.Cost, fv.LinkKeyFor(node, e.To)})
				return true
			})
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d node %d: neighbor walks differ\ngeneric: %+v\nflat:    %+v",
					trial, node, want, got)
			}
		}

		for _, tr := range []graph.TransitCostFunc{nil, transit} {
			pw, okw := graph.ShortestPath(gv, gv.SrcNode(), gv.DstNode(), tr)
			pg, okg, pruned := fv.Search(tr, 0, 0, math.Inf(1))
			if pruned {
				t.Fatalf("trial %d: unbudgeted search reported pruning", trial)
			}
			if okw != okg || !reflect.DeepEqual(pw, pg) {
				t.Fatalf("trial %d: dijkstra diverged\ngeneric: ok=%v %+v\nflat:    ok=%v %+v",
					trial, okw, pw, okg, pg)
			}
			if okw {
				cw := gv.PathConsumptions(pw)
				cg := fv.AppendConsumptions(pg, nil)
				if !reflect.DeepEqual(cw, cg) {
					t.Fatalf("trial %d: consumptions diverged\ngeneric: %+v\nflat:    %+v", trial, cw, cg)
				}
			}

			for _, maxHops := range []int{2, 4, 8} {
				hw, okw := graph.ShortestPathHopLimited(gv, gv.SrcNode(), gv.DstNode(), maxHops, tr)
				hg, okg, pruned := fv.Search(tr, maxHops, 0, math.Inf(1))
				if pruned {
					t.Fatalf("trial %d: unbudgeted hop search reported pruning", trial)
				}
				if okw != okg || !reflect.DeepEqual(hw, hg) {
					t.Fatalf("trial %d cap %d: hop-limited diverged\ngeneric: ok=%v %+v\nflat:    ok=%v %+v",
						trial, maxHops, okw, hw, okg, hg)
				}
			}
		}

		// Load the cheapest path for the next trial.
		lv, err := sc.BuildView(s, slot, groundEP(0), groundEP(1), 1900, loadCost)
		if err != nil {
			t.Fatal(err)
		}
		if p, ok, _ := lv.Search(nil, 0, 0, math.Inf(1)); ok {
			txn := s.Begin()
			if err := txn.ReservePath(lv, p); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.NumActiveLinks() == 0 {
		t.Fatal("no trial ran on a loaded ledger")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFlatSearchBudgetPruning pins the pruning contract on a live view:
// with a budget below the true path cost the search must report
// pruned=true and find nothing better, and with the budget exactly at
// the path cost it must return the same path as the unbudgeted search.
func TestFlatSearchBudgetPruning(t *testing.T) {
	s := newTestState(t, twoCitySites(), false)
	slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
	sc := NewSearchScratch()
	fv, err := sc.BuildView(s, slot, groundEP(0), groundEP(1), 100, hopCost)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxHops := range []int{0, 6} {
		free, ok, _ := fv.Search(nil, maxHops, 0, math.Inf(1))
		if !ok {
			t.Fatalf("maxHops %d: no baseline path", maxHops)
		}
		// With the budget exactly at the path cost the optimal path must
		// survive. The DP may still report pruned=true (it discards
		// non-optimal over-budget labels along the way); the flag only
		// carries meaning when the search fails.
		if p, ok, _ := fv.Search(nil, maxHops, 0, free.Cost); !ok || !reflect.DeepEqual(p, free) {
			t.Fatalf("maxHops %d: budget == cost must keep the path (ok=%v)", maxHops, ok)
		}
		if _, ok, pruned := fv.Search(nil, maxHops, 0, free.Cost/2); ok || !pruned {
			t.Fatalf("maxHops %d: budget below cost must prune (ok=%v pruned=%v)", maxHops, ok, pruned)
		}
		// budgetBase shifts the accumulated-price origin: an exhausted
		// base leaves no room for any edge.
		if _, ok, pruned := fv.Search(nil, maxHops, free.Cost, free.Cost); ok || !pruned {
			t.Fatalf("maxHops %d: exhausted base must prune (ok=%v pruned=%v)", maxHops, ok, pruned)
		}
	}
}
