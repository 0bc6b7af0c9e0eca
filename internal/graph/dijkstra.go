package graph

import (
	"math"
	"slices"
)

// item is a priority-queue entry over (node, incoming-class) states.
type item struct {
	state int
	dist  float64
}

// searchHeap is a typed binary min-heap over items, ordered by dist:
// pushes and pops move concrete structs, with no interface{} boxing.
type searchHeap struct {
	items []item
}

func (h *searchHeap) empty() bool { return len(h.items) == 0 }

func (h *searchHeap) push(it item) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].dist <= h.items[i].dist {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *searchHeap) pop() item {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && h.items[r].dist < h.items[l].dist {
			child = r
		}
		if h.items[i].dist <= h.items[child].dist {
			break
		}
		h.items[i], h.items[child] = h.items[child], h.items[i]
		i = child
	}
	return top
}

// predLink records how a search state was reached.
type predLink struct {
	state int
	edge  Edge
}

// ShortestPath runs Dijkstra from src to dst over any Adjacency.
//
// When transit is nil it is plain Dijkstra over edge costs. When transit
// is non-nil the search runs over (node, incoming-edge-class) states and
// charges transit(node, in, out) each time the search leaves a node —
// this is how CEAR folds Eq. (1)'s role-dependent satellite energy cost
// into path search: the role of a satellite (relay, ingress gateway,
// egress gateway) is exactly the pair of its incoming and outgoing link
// classes.
//
// Edges with +Inf cost and node transits with +Inf cost are skipped.
// The second return value is false when dst is unreachable. Every call
// allocates its own arrays, so concurrent calls share nothing.
func ShortestPath(g Adjacency, src, dst int, transit TransitCostFunc) (Path, bool) {
	n := g.N()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return Path{}, false
	}
	if src == dst {
		return Path{Nodes: []int{src}}, true
	}

	// State encoding: node*numClasses + int(inClass).
	dist := make([]float64, n*numClasses)
	prev := make([]predLink, n*numClasses)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = predLink{state: -1}
	}
	start := src*numClasses + int(ClassNone)
	dist[start] = 0
	var pq searchHeap
	pq.push(item{state: start, dist: 0})

	// What leaving the popped state over an edge of one class costs is
	// fixed by the state, not by the edge: transit is asked at the first
	// unmasked edge of each out-class and the answer reused for the rest
	// (never asked for a class whose edges are all masked).
	var (
		cur        item
		curNode    int
		curInClass EdgeClass
		tcAsked    [numClasses]bool
		tcVal      [numClasses]float64
	)
	relax := func(e Edge) bool {
		w := e.Cost
		if math.IsInf(w, 1) {
			return true
		}
		if transit != nil && curNode != src {
			if !tcAsked[e.Class] {
				tcVal[e.Class], tcAsked[e.Class] = transit(curNode, curInClass, e.Class), true
			}
			tc := tcVal[e.Class]
			if math.IsInf(tc, 1) {
				return true
			}
			w += tc
		}
		nextState := e.To*numClasses + int(e.Class)
		if nd := cur.dist + w; nd < dist[nextState] {
			dist[nextState] = nd
			prev[nextState] = predLink{state: cur.state, edge: e}
			pq.push(item{state: nextState, dist: nd})
		}
		return true
	}

	for !pq.empty() {
		cur = pq.pop()
		if cur.dist > dist[cur.state] {
			continue // stale entry
		}
		curNode, curInClass = cur.state/numClasses, EdgeClass(cur.state%numClasses)
		if curNode == dst {
			// First settle of the destination is optimal over all
			// incoming classes (dst pays no transit).
			return reconstruct(prev, cur.state, cur.dist), true
		}
		tcAsked = [numClasses]bool{}
		g.VisitNeighbors(curNode, relax)
	}
	return Path{}, false
}

// ShortestPath runs Dijkstra on an explicit graph; see the package-level
// ShortestPath for semantics.
func (g *Graph) ShortestPath(src, dst int, transit TransitCostFunc) (Path, bool) {
	return ShortestPath(g, src, dst, transit)
}

// reconstruct walks predecessor links back to the source and returns the
// path in forward order.
func reconstruct(prev []predLink, dstState int, cost float64) Path {
	var nodes []int
	var edges []Edge
	for s := dstState; ; s = prev[s].state {
		nodes = append(nodes, s/numClasses)
		if prev[s].state < 0 {
			break
		}
		edges = append(edges, prev[s].edge)
	}
	slices.Reverse(nodes)
	slices.Reverse(edges)
	return Path{Nodes: nodes, Edges: edges, Cost: cost}
}

// PathCost recomputes the full cost of a path (edge costs plus transit
// charges at intermediate nodes) in forward hop order, matching the
// accounting used by ShortestPath. Returns +Inf for structurally invalid
// paths.
func PathCost(nodes []int, edges []Edge, transit TransitCostFunc) float64 {
	if len(edges) != len(nodes)-1 {
		return math.Inf(1)
	}
	total := 0.0
	for i, e := range edges {
		total += e.Cost
		if transit != nil && i > 0 {
			total += transit(nodes[i], edges[i-1].Class, e.Class)
		}
	}
	return total
}
