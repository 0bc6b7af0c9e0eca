package graph_test

import (
	"fmt"

	"spacebooking/internal/graph"
)

// Role-dependent transit costs: a satellite's energy price depends on
// whether it is entered and left via inter-satellite links or user
// links, so the search runs over (node, incoming-class) states.
func ExampleShortestPath() {
	g := graph.New(4)
	// src(0) -> gateway(1) -> relay(2) -> dst(3)
	_ = g.AddEdge(0, 1, graph.ClassUSL, 1)
	_ = g.AddEdge(1, 2, graph.ClassISL, 1)
	_ = g.AddEdge(2, 3, graph.ClassUSL, 1)

	transit := func(node int, in, out graph.EdgeClass) float64 {
		if in == graph.ClassUSL || out == graph.ClassUSL {
			return 10 // gateways pay the user-link energy premium
		}
		return 1 // relays are cheap
	}
	p, ok := graph.ShortestPath(g, 0, 3, transit)
	fmt.Println(ok, p.Nodes, p.Cost)
	// Output:
	// true [0 1 2 3] 23
}
