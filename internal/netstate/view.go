package netstate

import (
	"fmt"
	"math"

	"spacebooking/internal/graph"
	"spacebooking/internal/topology"
)

// EdgeCostFunc prices one candidate edge for the current request: the
// link identified by key has the given class, capacity and current
// utilization. Returning +Inf excludes the edge. Implementations supply
// each algorithm's routing metric (CEAR's exponential congestion price,
// ECARS's linear weight, SSP's unit hop cost, ...).
type EdgeCostFunc func(key LinkKey, class graph.EdgeClass, capacityMbps, utilization float64) float64

// View is the per-slot routing graph of one request: an implicit
// graph.Adjacency over the satellites plus two virtual endpoint nodes.
//
// Node numbering inside the search space: satellites occupy [0, NumSats),
// SrcNode() = NumSats, DstNode() = NumSats+1.
//
// Capacity feasibility (constraint (7b)) is enforced structurally: an
// edge whose residual bandwidth in this slot is below the request's
// demand is never offered to the search, implementing the all-or-nothing
// reservation semantics of §III-B.
type View struct {
	prov       *topology.Provider
	state      *State
	slot       int
	demandMbps float64
	cost       EdgeCostFunc

	src, dst   topology.Endpoint
	srcGID     int
	dstGID     int
	srcVisible []int
	dstVisible []bool // indexed by satellite
	dstVisList []int
	numSats    int
}

// NewView builds the routing view for one (request, slot) pair.
func NewView(state *State, slot int, src, dst topology.Endpoint, demandMbps float64, cost EdgeCostFunc) (*View, error) {
	if state == nil {
		return nil, fmt.Errorf("netstate: nil state")
	}
	if cost == nil {
		return nil, fmt.Errorf("netstate: nil cost function")
	}
	if demandMbps <= 0 {
		return nil, fmt.Errorf("netstate: demand must be positive, got %v", demandMbps)
	}
	prov := state.prov
	srcVis, err := prov.VisibleSats(src, slot)
	if err != nil {
		return nil, fmt.Errorf("netstate: source visibility: %w", err)
	}
	dstVis, err := prov.VisibleSats(dst, slot)
	if err != nil {
		return nil, fmt.Errorf("netstate: destination visibility: %w", err)
	}
	v := &View{
		prov:       prov,
		state:      state,
		slot:       slot,
		demandMbps: demandMbps,
		cost:       cost,
		src:        src,
		dst:        dst,
		srcGID:     prov.GlobalID(src),
		dstGID:     prov.GlobalID(dst),
		srcVisible: srcVis,
		dstVisible: make([]bool, prov.NumSats()),
		dstVisList: dstVis,
		numSats:    prov.NumSats(),
	}
	for _, sat := range dstVis {
		v.dstVisible[sat] = true
	}
	return v, nil
}

// N implements graph.Adjacency: satellites plus the two endpoint nodes.
func (v *View) N() int { return v.numSats + 2 }

// SrcNode returns the search-space node index of the request source.
func (v *View) SrcNode() int { return v.numSats }

// DstNode returns the search-space node index of the request destination.
func (v *View) DstNode() int { return v.numSats + 1 }

// Slot returns the slot this view prices.
func (v *View) Slot() int { return v.slot }

// DemandMbps returns the per-slot demand the view was built for.
func (v *View) DemandMbps() float64 { return v.demandMbps }

// globalID maps a search node to the provider's global node-ID space.
func (v *View) globalID(node int) int {
	switch node {
	case v.SrcNode():
		return v.srcGID
	case v.DstNode():
		return v.dstGID
	default:
		return node
	}
}

// LinkKeyFor returns the ledger key of the directed link between two
// search-space nodes.
func (v *View) LinkKeyFor(from, to int) LinkKey {
	return MakeLinkKey(v.globalID(from), v.globalID(to))
}

// priceEdge computes an edge's cost, masking capacity-infeasible links.
// Masked edges are reported to the blame scratch (pure observation —
// the returned cost is unchanged) so a congestion rejection can be
// attributed to the fullest link the search bounced off.
func (v *View) priceEdge(from, to int, class graph.EdgeClass) float64 {
	key := v.LinkKeyFor(from, to)
	capacity := v.state.linkCapacity(key)
	used := v.state.LinkUsedMbps(key, v.slot)
	if used+v.demandMbps > capacity*(1+1e-12) {
		v.state.noteBlockedLink(key, used/capacity)
		return math.Inf(1)
	}
	return v.cost(key, class, capacity, used/capacity)
}

// VisitNeighbors implements graph.Adjacency.
func (v *View) VisitNeighbors(node int, fn func(graph.Edge) bool) {
	switch {
	case node == v.SrcNode():
		for _, sat := range v.srcVisible {
			c := v.priceEdge(node, sat, graph.ClassUSL)
			if !fn(graph.Edge{To: sat, Class: graph.ClassUSL, Cost: c}) {
				return
			}
		}
	case node == v.DstNode():
		// Destination is a sink.
	default:
		for _, n := range v.prov.ISLNeighbors(node) {
			c := v.priceEdge(node, n, graph.ClassISL)
			if !fn(graph.Edge{To: n, Class: graph.ClassISL, Cost: c}) {
				return
			}
		}
		if v.dstVisible[node] {
			c := v.priceEdge(node, v.DstNode(), graph.ClassUSL)
			if !fn(graph.Edge{To: v.DstNode(), Class: graph.ClassUSL, Cost: c}) {
				return
			}
		}
	}
}

var _ graph.Adjacency = (*View)(nil)

// PathConsumptions converts a path found on this view into the list of
// per-satellite energy consumptions it implies in this slot, applying
// Eq. (1)'s role-dependent accounting via the incoming/outgoing link
// classes of each transited satellite.
func (v *View) PathConsumptions(p graph.Path) []Consumption {
	if len(p.Nodes) < 3 {
		return nil
	}
	slotSec := v.prov.Config().SlotSeconds
	out := make([]Consumption, 0, len(p.Nodes)-2)
	for i := 1; i < len(p.Nodes)-1; i++ {
		sat := p.Nodes[i]
		inClass := p.Edges[i-1].Class
		outClass := p.Edges[i].Class
		j := v.state.energyCfg.TransitEnergyJ(inClass, outClass, v.demandMbps, slotSec)
		if j > 0 {
			out = append(out, Consumption{Sat: sat, Slot: v.slot, Joules: j})
		}
	}
	return out
}
