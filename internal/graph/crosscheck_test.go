package graph

import (
	"math"
	"math/rand"
	"testing"
)

// enumerateSimplePaths lists every loopless path from src to dst by DFS —
// exponential, fine for the tiny graphs used here.
func enumerateSimplePaths(g *Graph, src, dst int, transit TransitCostFunc) []Path {
	var out []Path
	visited := make([]bool, g.N())
	var nodes []int
	var edges []Edge

	var dfs func(at int)
	dfs = func(at int) {
		if at == dst {
			cost := PathCost(append([]int(nil), nodes...), append([]Edge(nil), edges...), transit)
			if !math.IsInf(cost, 1) {
				out = append(out, Path{
					Nodes: append([]int(nil), nodes...),
					Edges: append([]Edge(nil), edges...),
					Cost:  cost,
				})
			}
			return
		}
		for _, e := range g.adj[at] {
			if visited[e.To] || math.IsInf(e.Cost, 1) {
				continue
			}
			visited[e.To] = true
			nodes = append(nodes, e.To)
			edges = append(edges, e)
			dfs(e.To)
			nodes = nodes[:len(nodes)-1]
			edges = edges[:len(edges)-1]
			visited[e.To] = false
		}
	}
	visited[src] = true
	nodes = append(nodes, src)
	dfs(src)
	return out
}

// TestDijkstraMatchesBruteForce cross-checks the state-space Dijkstra
// against exhaustive enumeration on random small graphs, with and
// without transit costs.
func TestDijkstraMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := 7
		g := New(n)
		for i := 0; i < 16; i++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from == to {
				continue
			}
			class := ClassISL
			if rng.Intn(3) == 0 {
				class = ClassUSL
			}
			mustAdd(t, g, from, to, class, rng.Float64()*10)
		}
		var transit TransitCostFunc
		if trial%2 == 1 {
			costs := make([]float64, n)
			for i := range costs {
				costs[i] = rng.Float64() * 5
			}
			transit = func(node int, in, out EdgeClass) float64 {
				c := costs[node]
				if in == ClassUSL {
					c *= 2 // class-dependent, exercising the state space
				}
				return c
			}
		}

		all := enumerateSimplePaths(g, 0, n-1, transit)
		got, ok := ShortestPath(g, 0, n-1, transit)
		if len(all) == 0 {
			// Brute force enumerates only simple paths; Dijkstra's state
			// space could still find a walk, but with non-negative costs
			// an optimal walk implies an equal-or-better simple path
			// EXCEPT when class-dependent transit makes revisits useful.
			// Plain reachability must still agree when transit is nil.
			if transit == nil && ok {
				t.Fatalf("trial %d: dijkstra found a path, brute force none", trial)
			}
			continue
		}
		best := math.Inf(1)
		for _, p := range all {
			if p.Cost < best {
				best = p.Cost
			}
		}
		if !ok {
			t.Fatalf("trial %d: brute force found cost %v, dijkstra nothing", trial, best)
		}
		// Dijkstra may use a node twice via different classes, so it can
		// only ever be <= the best simple path.
		if got.Cost > best+1e-9 {
			t.Fatalf("trial %d: dijkstra %v worse than brute force %v", trial, got.Cost, best)
		}
	}
}
