package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// buildDiamond constructs:
//
//	0 --1--> 1 --1--> 3
//	0 --1--> 2 --5--> 3
//
// so the shortest 0->3 path is via node 1 with cost 2.
func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g := New(4)
	mustAdd(t, g, 0, 1, ClassISL, 1, 1)
	mustAdd(t, g, 0, 2, ClassISL, 2, 1)
	mustAdd(t, g, 1, 3, ClassISL, 3, 1)
	mustAdd(t, g, 2, 3, ClassISL, 4, 5)
	return g
}

func mustAdd(t *testing.T, g *Graph, from, to int, class EdgeClass, payload int32, cost float64) {
	t.Helper()
	if err := g.AddEdge(from, to, class, payload, cost); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(2)
	tests := []struct {
		name     string
		from, to int
		cost     float64
	}{
		{"from out of range", -1, 0, 1},
		{"to out of range", 0, 2, 1},
		{"negative cost", 0, 1, -1},
		{"NaN cost", 0, 1, math.NaN()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := g.AddEdge(tt.from, tt.to, ClassISL, 0, tt.cost); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestShortestPathBasic(t *testing.T) {
	g := buildDiamond(t)
	p, ok := g.ShortestPath(0, 3, nil)
	if !ok {
		t.Fatal("no path found")
	}
	if p.Cost != 2 {
		t.Errorf("cost = %v, want 2", p.Cost)
	}
	wantNodes := []int{0, 1, 3}
	if !reflect.DeepEqual(p.Nodes, wantNodes) {
		t.Errorf("nodes = %v, want %v", p.Nodes, wantNodes)
	}
	if p.Hops() != 2 {
		t.Errorf("hops = %d, want 2", p.Hops())
	}
	if len(p.Edges) != 2 || p.Edges[0].Payload != 1 || p.Edges[1].Payload != 3 {
		t.Errorf("edges = %+v", p.Edges)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 0, 1, ClassISL, 0, 1)
	if _, ok := g.ShortestPath(0, 2, nil); ok {
		t.Error("expected no path to isolated node")
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := New(2)
	p, ok := g.ShortestPath(1, 1, nil)
	if !ok || len(p.Nodes) != 1 || p.Cost != 0 {
		t.Errorf("self path = %+v, ok=%v", p, ok)
	}
}

func TestShortestPathOutOfRange(t *testing.T) {
	g := New(2)
	if _, ok := g.ShortestPath(-1, 1, nil); ok {
		t.Error("negative src should fail")
	}
	if _, ok := g.ShortestPath(0, 5, nil); ok {
		t.Error("out-of-range dst should fail")
	}
}

func TestShortestPathSkipsInfEdges(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 0, 1, ClassISL, 0, math.Inf(1))
	mustAdd(t, g, 0, 2, ClassISL, 0, 1)
	mustAdd(t, g, 2, 1, ClassISL, 0, 1)
	p, ok := g.ShortestPath(0, 1, nil)
	if !ok {
		t.Fatal("no path")
	}
	if !reflect.DeepEqual(p.Nodes, []int{0, 2, 1}) {
		t.Errorf("path = %v, should avoid the +Inf edge", p.Nodes)
	}
}

func TestShortestPathWithTransitCosts(t *testing.T) {
	// Two parallel relays: node 1 charges a high transit cost, node 2 a
	// low one; edge costs alone would prefer node 1.
	g := New(4)
	mustAdd(t, g, 0, 1, ClassISL, 0, 1)
	mustAdd(t, g, 1, 3, ClassISL, 0, 1)
	mustAdd(t, g, 0, 2, ClassISL, 0, 2)
	mustAdd(t, g, 2, 3, ClassISL, 0, 2)
	transit := func(node int, in, out EdgeClass) float64 {
		if node == 1 {
			return 100
		}
		return 1
	}
	p, ok := g.ShortestPath(0, 3, transit)
	if !ok {
		t.Fatal("no path")
	}
	if !reflect.DeepEqual(p.Nodes, []int{0, 2, 3}) {
		t.Errorf("path = %v, want detour through node 2", p.Nodes)
	}
	if p.Cost != 5 { // 2 + 2 edges + 1 transit
		t.Errorf("cost = %v, want 5", p.Cost)
	}
}

func TestShortestPathTransitInfBlocksNode(t *testing.T) {
	g := New(4)
	mustAdd(t, g, 0, 1, ClassISL, 0, 1)
	mustAdd(t, g, 1, 3, ClassISL, 0, 1)
	mustAdd(t, g, 0, 2, ClassISL, 0, 10)
	mustAdd(t, g, 2, 3, ClassISL, 0, 10)
	transit := func(node int, in, out EdgeClass) float64 {
		if node == 1 {
			return math.Inf(1) // battery-infeasible satellite
		}
		return 0
	}
	p, ok := g.ShortestPath(0, 3, transit)
	if !ok {
		t.Fatal("no path")
	}
	if !reflect.DeepEqual(p.Nodes, []int{0, 2, 3}) {
		t.Errorf("path = %v, want route around blocked node", p.Nodes)
	}
}

func TestShortestPathClassDependentTransit(t *testing.T) {
	// Gateway role pricing: node 1 is entered via USL from the source and
	// must pay an ingress-gateway charge; entering it via ISL would be
	// cheaper, mirroring Eq. (1)'s role distinction.
	g := New(4)
	mustAdd(t, g, 0, 1, ClassUSL, 0, 0) // src -> gateway
	mustAdd(t, g, 1, 2, ClassISL, 0, 0)
	mustAdd(t, g, 2, 3, ClassUSL, 0, 0) // egress -> dst
	var seen [][2]EdgeClass
	transit := func(node int, in, out EdgeClass) float64 {
		seen = append(seen, [2]EdgeClass{in, out})
		return 0
	}
	p, ok := g.ShortestPath(0, 3, transit)
	if !ok {
		t.Fatal("no path")
	}
	if p.Hops() != 3 {
		t.Fatalf("hops = %d", p.Hops())
	}
	// Node 1 must have been charged with in=USL,out=ISL and node 2 with
	// in=ISL,out=USL.
	want := map[[2]EdgeClass]bool{
		{ClassUSL, ClassISL}: false,
		{ClassISL, ClassUSL}: false,
	}
	for _, s := range seen {
		if _, ok := want[s]; ok {
			want[s] = true
		}
	}
	for k, v := range want {
		if !v {
			t.Errorf("transit was never consulted with classes %v", k)
		}
	}
}

func TestShortestPathSourceNotCharged(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 0, 1, ClassISL, 0, 1)
	mustAdd(t, g, 1, 2, ClassISL, 0, 1)
	charged := map[int]bool{}
	transit := func(node int, in, out EdgeClass) float64 {
		charged[node] = true
		return 0
	}
	if _, ok := g.ShortestPath(0, 2, transit); !ok {
		t.Fatal("no path")
	}
	if charged[0] {
		t.Error("source node was charged a transit cost")
	}
	if charged[2] {
		t.Error("destination node was charged a transit cost")
	}
	if !charged[1] {
		t.Error("intermediate node was not charged")
	}
}

func TestPathCostInvalid(t *testing.T) {
	if c := PathCost([]int{0, 1}, nil, nil); !math.IsInf(c, 1) {
		t.Errorf("mismatched nodes/edges should be +Inf, got %v", c)
	}
}

func TestGraphCounts(t *testing.T) {
	g := buildDiamond(t)
	if g.N() != 4 {
		t.Errorf("N = %d", g.N())
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
}

// Property: on random graphs, Dijkstra's result cost equals PathCost
// recomputation, and is no worse than any single direct edge.
func TestShortestPathCostConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 10
		g := New(n)
		for i := 0; i < 30; i++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from == to {
				continue
			}
			mustAdd(t, g, from, to, ClassISL, 0, rng.Float64()*10)
		}
		p, ok := g.ShortestPath(0, n-1, nil)
		if !ok {
			continue
		}
		recomputed := PathCost(p.Nodes, p.Edges, nil)
		if math.Abs(recomputed-p.Cost) > 1e-9 {
			t.Fatalf("trial %d: PathCost %v != search cost %v", trial, recomputed, p.Cost)
		}
		for _, e := range g.adj[0] {
			if e.To == n-1 && e.Cost < p.Cost-1e-9 {
				t.Fatalf("trial %d: direct edge cheaper than shortest path", trial)
			}
		}
	}
}
