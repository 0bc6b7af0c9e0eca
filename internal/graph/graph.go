// Package graph provides the hand-rolled graph algorithm the simulator
// needs: a compact adjacency-list digraph and Dijkstra shortest paths with
// optional per-node *transit* costs that depend on the classes of the
// incoming and outgoing edges (how CEAR prices satellite energy per
// Eq. (1) of the paper). The search here is the generic form, over any
// Adjacency; admission runs its flat twin in internal/netstate and tests
// compare the two.
package graph

import (
	"fmt"
	"math"
)

// EdgeClass tags an edge with a small integer class. CEAR uses classes to
// distinguish inter-satellite links from user-satellite links, because a
// satellite's energy draw depends on the classes of the links it receives
// on and transmits on.
type EdgeClass int8

// Edge classes used by the LSN topology. Start at 1 so the zero value is
// recognisably "unset"; ClassNone marks the virtual state of a path
// source (no incoming edge).
const (
	ClassNone EdgeClass = 0
	ClassISL  EdgeClass = 1
	ClassUSL  EdgeClass = 2

	numClasses = 3
)

// NumClasses is the size of the edge-class value space (including
// ClassNone). Specialised searches outside this package — the routing
// fast path over netstate's flat slot views — use it to replicate the
// (node, incoming-class) state encoding node*NumClasses + int(class).
const NumClasses = numClasses

// Edge is a directed edge.
type Edge struct {
	To      int
	Class   EdgeClass
	Payload int32   // caller-defined identifier (e.g. link-ledger index)
	Cost    float64 // non-negative base cost; +Inf edges are skipped
}

// Adjacency is the graph abstraction the searches run over. Implicit
// graphs (like the simulator's per-slot LSN view, which combines a static
// ISL grid with per-request user links and computes congestion-priced
// edge costs on the fly) implement it without materialising edge lists.
type Adjacency interface {
	// N returns the number of nodes; valid node indices are 0..N()-1.
	N() int
	// VisitNeighbors calls fn for every outgoing edge of node. Returning
	// false stops the enumeration early.
	VisitNeighbors(node int, fn func(Edge) bool)
}

// Graph is a directed graph over nodes 0..N-1 with explicit adjacency
// lists. It implements Adjacency.
type Graph struct {
	adj   [][]Edge
	instr *Instruments
}

var _ Adjacency = (*Graph)(nil)

// New returns an empty graph with n nodes.
func New(n int) *Graph {
	return &Graph{adj: make([][]Edge, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// Instrument attaches (or with nil, detaches) the counters that searches
// over this graph advance. Plain field write: attach before sharing the
// graph across goroutines.
func (g *Graph) Instrument(in *Instruments) { g.instr = in }

// Instruments implements Instrumented.
func (g *Graph) Instruments() *Instruments { return g.instr }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, es := range g.adj {
		total += len(es)
	}
	return total
}

// AddEdge appends a directed edge. Costs must be non-negative (Dijkstra);
// an edge with +Inf cost is stored but never traversed.
func (g *Graph) AddEdge(from, to int, class EdgeClass, payload int32, cost float64) error {
	if from < 0 || from >= len(g.adj) || to < 0 || to >= len(g.adj) {
		return fmt.Errorf("graph: edge %d->%d outside node range [0,%d)", from, to, len(g.adj))
	}
	if cost < 0 || math.IsNaN(cost) {
		return fmt.Errorf("graph: edge %d->%d has invalid cost %v", from, to, cost)
	}
	g.adj[from] = append(g.adj[from], Edge{To: to, Class: class, Payload: payload, Cost: cost})
	return nil
}

// VisitNeighbors implements Adjacency.
func (g *Graph) VisitNeighbors(node int, fn func(Edge) bool) {
	for _, e := range g.adj[node] {
		if !fn(e) {
			return
		}
	}
}

// Path is the result of a path search.
type Path struct {
	// Nodes lists the path vertices from source to destination inclusive.
	Nodes []int
	// Edges lists the traversed edges; len(Edges) == len(Nodes)-1.
	Edges []Edge
	// Cost is the total path cost including transit costs.
	Cost float64
}

// Hops returns the number of edges in the path.
func (p Path) Hops() int { return len(p.Edges) }

// TransitCostFunc prices passing *through* a node: the cost incurred at
// `node` when it is entered via an edge of class in and left via an edge
// of class out. Source and destination nodes are not charged. Returning
// +Inf makes the node untraversable for that class pair. The searches ask
// once per (settled state, out class) and reuse the answer for every edge
// of that class.
type TransitCostFunc func(node int, in, out EdgeClass) float64
