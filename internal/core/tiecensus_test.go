package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spacebooking/internal/graph"
	"spacebooking/internal/grid"
	"spacebooking/internal/netstate"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// visitOrder is a graph.Adjacency that visits each node's neighbours in
// another order than the wrapped graph does: as given, reversed, or
// shuffled by its own seeded source. Costs are the wrapped graph's.
type visitOrder struct {
	graph.Adjacency
	reverse bool
	rng     *rand.Rand
	buf     []graph.Edge
}

func (o *visitOrder) VisitNeighbors(node int, fn func(graph.Edge) bool) {
	o.buf = o.buf[:0]
	o.Adjacency.VisitNeighbors(node, func(e graph.Edge) bool {
		o.buf = append(o.buf, e)
		return true
	})
	switch {
	case o.reverse:
		slices.Reverse(o.buf)
	case o.rng != nil:
		o.rng.Shuffle(len(o.buf), func(i, j int) { o.buf[i], o.buf[j] = o.buf[j], o.buf[i] })
	}
	for _, e := range o.buf {
		if !fn(e) {
			return
		}
	}
}

// TestTieCensus counts how often a slot search's answer depends on the
// order it meets equal-cost labels in. It loads a 288-satellite ledger
// (the medium preset's shell) with 200 CEAR requests, then for every slot
// search of the next 60 compares CEAR's flat search with graph.ShortestPath
// over the reference View, visiting neighbours in three orders. A search
// diverges when the two disagree on reachability, on the node sequence or
// on the Float64bits of the cost. In the natural order the two are the
// same search and never diverge; in the other two the count is how many
// answers today's tie-breaking (first writer wins, in heap order) decides:
// one of 308, an equal-cost path through a different satellite.
// The census runs each request's slots inside a transaction it rolls back,
// then admits the request for real, so each search prices exactly the
// state CEAR's own does.
func TestTieCensus(t *testing.T) {
	cfg := topology.DefaultConfig(testEpoch)
	cfg.Walker.Planes, cfg.Walker.SatsPerPlane, cfg.Walker.PhasingF = 12, 24, 5
	cfg.Horizon = 96
	cfg.MinElevationDeg = 15
	sites := append(testSites(),
		grid.Site{ID: 2, LatDeg: 51.5, LonDeg: -0.1}, // London
		grid.Site{ID: 3, LatDeg: 40.4, LonDeg: -3.7}, // Madrid
	)
	var eps []topology.Endpoint
	for i := range sites {
		eps = append(eps, groundEP(i))
	}
	prov, err := topology.NewProvider(cfg, sites, nil, eps...)
	if err != nil {
		t.Fatal(err)
	}
	state, err := netstate.New(prov, netstate.DefaultEnergyConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := newCEAR(t, state, Options{})
	wl := workload.DefaultConfig(cfg.Horizon, []workload.Pair{
		{Src: groundEP(0), Dst: groundEP(1)},
		{Src: groundEP(2), Dst: groundEP(3)},
		{Src: groundEP(0), Dst: groundEP(2)},
	}, 1)
	wl.ArrivalRatePerSlot, wl.Valuation = 5, 1e8
	reqs, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	const loaded, censused = 200, 60
	if len(reqs) < loaded+censused {
		t.Fatalf("only %d requests generated", len(reqs))
	}
	for _, req := range reqs[:loaded] {
		if _, err := c.Handle(req); err != nil {
			t.Fatal(err)
		}
	}

	orders := []struct {
		name string
		want int
		adj  func(*netstate.View) graph.Adjacency
	}{
		{"natural", 0, func(v *netstate.View) graph.Adjacency { return v }},
		{"reversed", 1, func(v *netstate.View) graph.Adjacency { return &visitOrder{Adjacency: v, reverse: true} }},
		{"shuffled", 1, func(v *netstate.View) graph.Adjacency {
			return &visitOrder{Adjacency: v, rng: rand.New(rand.NewSource(int64(v.Slot())))}
		}},
	}
	diverged := make([]int, len(orders))
	searches := 0
	for _, req := range reqs[loaded : loaded+censused] {
		txn := state.Begin()
		for slot := req.StartSlot; slot <= req.EndSlot; slot++ {
			c.beginSearch(slot, req.RateAt(slot))
			view, err := netstate.NewView(state, slot, req.Src, req.Dst, c.curDemand, c.search.EdgeCost)
			if err != nil {
				t.Fatal(err)
			}
			refs := make([]graph.Path, len(orders))
			oks := make([]bool, len(orders))
			for i, o := range orders {
				refs[i], oks[i] = graph.ShortestPath(o.adj(view), view.SrcNode(), view.DstNode(), c.search.Transit)
			}
			path, outcome, err := c.scratch.RouteSlot(txn, slot, req.Src, req.Dst, c.curDemand, &c.search, 0, math.Inf(1))
			if outcome == netstate.SlotFailed {
				t.Fatalf("request %d slot %d: %v", req.ID, slot, err)
			}
			found := outcome == netstate.SlotRouted || outcome == netstate.SlotEnergyInfeasible
			searches++
			for i := range orders {
				if oks[i] != found || found && (!slices.Equal(refs[i].Nodes, path.Nodes) ||
					math.Float64bits(refs[i].Cost) != math.Float64bits(path.Cost)) {
					diverged[i]++
				}
			}
			if outcome != netstate.SlotRouted {
				break
			}
		}
		txn.Rollback()
		if _, err := c.Handle(req); err != nil {
			t.Fatal(err)
		}
	}
	if searches < censused {
		t.Fatalf("only %d slot searches censused", searches)
	}
	for i, o := range orders {
		t.Logf("%s order: %d of %d slot searches diverge from the flat search", o.name, diverged[i], searches)
		if diverged[i] != o.want {
			t.Errorf("%s order: %d of %d slot searches diverge, pinned %d", o.name, diverged[i], searches, o.want)
		}
	}
}
