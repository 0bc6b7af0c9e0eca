package graph

import "math"

// Scratch holds the reusable working memory of the path search: the
// Dijkstra dist/prev arrays and priority queue and the reversal buffers
// of path reconstruction. One Scratch serves any number of sequential
// searches over graphs of any size (arrays grow on demand and are retained
// at high-water mark), so a caller that owns one pays zero search
// allocations after warm-up beyond the returned Path itself.
//
// A Scratch is single-owner: two concurrent searches must use two
// Scratches.
type Scratch struct {
	heap searchHeap
	dist []float64
	prev []predLink

	// Path-reconstruction reversal buffers.
	nodesRev []int
	edgesRev []Edge
}

// NewScratch returns an empty scratch; arrays are sized lazily by the
// first search that uses them.
func NewScratch() *Scratch { return &Scratch{} }

// ensureDijkstra sizes and re-initialises the Dijkstra arrays for a
// search over numStates states: dist all +Inf, prev all absent.
func (sc *Scratch) ensureDijkstra(numStates int) {
	if cap(sc.dist) < numStates {
		sc.dist = make([]float64, numStates)
		sc.prev = make([]predLink, numStates)
	}
	sc.dist = sc.dist[:numStates]
	sc.prev = sc.prev[:numStates]
	inf := math.Inf(1)
	for i := range sc.dist {
		sc.dist[i] = inf
		sc.prev[i] = predLink{state: -1}
	}
}

// buildPath materialises a path from reversal buffers filled back to
// front: only the two returned slices are allocated.
func (sc *Scratch) buildPath(cost float64) Path {
	nodes := make([]int, len(sc.nodesRev))
	for i := range sc.nodesRev {
		nodes[i] = sc.nodesRev[len(sc.nodesRev)-1-i]
	}
	edges := make([]Edge, len(sc.edgesRev))
	for i := range sc.edgesRev {
		edges[i] = sc.edgesRev[len(sc.edgesRev)-1-i]
	}
	return Path{Nodes: nodes, Edges: edges, Cost: cost}
}
