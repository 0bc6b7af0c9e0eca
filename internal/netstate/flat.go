package netstate

import (
	"fmt"
	"math"
	"time"

	"spacebooking/internal/graph"
	"spacebooking/internal/topology"
)

// This file is the routing fast path: a devirtualized twin of View plus
// graph.ShortestPath, specialised to the per-slot LSN. The generic path
// dispatches every edge through the Adjacency interface and a
// VisitNeighbors closure; at paper scale that indirection — plus the fresh
// View, dist/prev arrays and heap per (request, slot) — dominates every
// figure run. FlatView iterates the provider's CSR-flattened ISL grid and
// the frozen USL visibility lists directly, and SearchScratch owns every
// array the search needs, epoch-stamped so reuse across slots and requests
// costs no clearing beyond a stamp bump.
//
// The generic path (View + graph.ShortestPath) stays as the reference
// implementation, reached through NewReferenceScratch;
// TestFlatViewMirrorsGenericView asserts byte-identical decisions between
// the two. Every semantic subtlety here — heap comparison directions,
// neighbour visit order, strict-< relaxation, the order of floating-point
// additions — deliberately replicates the generic code so the equivalence
// holds exactly, not approximately.

// flatItem is a priority-queue entry over (node, incoming-class) states.
type flatItem struct {
	state int32
	dist  float64
}

// flatHeap replicates graph's searchHeap byte for byte (push `<=`,
// pop-child `<`), so the flat Dijkstra settles equal-cost states in
// exactly the order the generic search would. pop moves a hole instead of
// swapping: the sifted item stays in a register, one item is written per
// level, and the comparisons — and so the layout after every operation —
// are the swap sift's (TestFlatHeapPopsInSwapSiftOrder, FuzzFlatHeap).
// push keeps the swap: a relaxed label seldom rises more than a level, and
// a hole there measured no gain.
type flatHeap struct {
	items []flatItem
}

func (h *flatHeap) reset() { h.items = h.items[:0] }

func (h *flatHeap) push(it flatItem) {
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

func (h *flatHeap) pop() flatItem {
	top := h.items[0]
	n := len(h.items) - 1
	it := h.items[n]
	items := h.items[:n]
	h.items = items
	if n == 0 {
		return top
	}
	i := 0
	// Levels where the hole has two children. Which of them is smaller is
	// a coin flip the branch predictor loses half the time, so the child's
	// index is computed from the comparison (flag to register, no jump).
	for r := 2; r < len(items); r = 2*i + 2 {
		rightSmaller := 0
		if items[r].dist < items[r-1].dist {
			rightSmaller = 1
		}
		child := r - 1 + rightSmaller
		if it.dist <= items[child].dist {
			items[i] = it
			return top
		}
		items[i] = items[child]
		i = child
	}
	// At most one level is left, with a left child only.
	if l := 2*i + 1; l < len(items) && !(it.dist <= items[l].dist) {
		items[i] = items[l]
		i = l
	}
	items[i] = it
	return top
}

// flatPred records how a search state was reached: the state relaxed
// from and the edge's cost (its target and class are the reached state).
type flatPred struct {
	state int32
	cost  float64
}

// SearchScratch is the working memory of the routing fast path: the
// per-slot FlatView itself, the destination-visibility stamps, the
// Dijkstra arrays and RouteSlot's consumption buffer. One scratch serves
// every slot of every request of a run — arrays are sized to the provider
// on first use and invalidated by epoch stamps rather than cleared, so a
// warm scratch makes view construction and search allocation-free.
//
// A SearchScratch is single-owner (one goroutine, one run at a time).
// Each run's State holds its own (State.SetScratch, or one State.Admit
// creates), so parallel runs never share one; within a run, the state's
// algorithm searches on it for every request, because a run handles
// requests sequentially.
type SearchScratch struct {
	view FlatView

	// reference makes RouteSlot run the generic View and graph.ShortestPath
	// instead of the flat search (NewReferenceScratch); nothing else reads it.
	reference bool

	// Sizing of the current arrays; rebuilt when the provider changes.
	numSats int

	// viewEpoch invalidates the dst-visibility stamps; bumped once per
	// BuildView.
	viewEpoch uint32
	dstStamp  []uint32 // dstStamp[sat]==viewEpoch: sat sees the dst

	// searchEpoch invalidates dist/prev between searches.
	searchEpoch uint32
	stateStamp  []uint32
	dist        []float64
	prev        []flatPred
	heap        flatHeap

	// consBuf holds the consumptions of the path RouteSlot is committing.
	consBuf []Consumption

	// uses counts views built on this scratch; builds after the first
	// are reuses (reported through the owning state's counters).
	uses uint64
}

// NewSearchScratch returns an empty scratch; arrays are sized by the
// first BuildView.
func NewSearchScratch() *SearchScratch { return &SearchScratch{} }

// ensure sizes the arrays for a provider, resetting all epochs when the
// satellite count changes (a scratch handed to another run's state with
// SetScratch may meet another provider).
func (sc *SearchScratch) ensure(numSats int) {
	numStates := (numSats + 2) * graph.NumClasses
	if numSats == sc.numSats {
		return
	}
	sc.numSats = numSats
	sc.dstStamp = make([]uint32, numSats)
	sc.stateStamp = make([]uint32, numStates)
	sc.dist = make([]float64, numStates)
	sc.prev = make([]flatPred, numStates)
	sc.viewEpoch, sc.searchEpoch = 0, 0
}

// bumpViewEpoch advances the view epoch, clearing stamp arrays on the
// (once per 2^32 views) wrap so stale stamps can never alias.
func (sc *SearchScratch) bumpViewEpoch() {
	sc.viewEpoch++
	if sc.viewEpoch == 0 {
		clear(sc.dstStamp)
		sc.viewEpoch = 1
	}
}

// bumpSearchEpoch advances the search epoch with the same wrap guard.
func (sc *SearchScratch) bumpSearchEpoch() {
	sc.searchEpoch++
	if sc.searchEpoch == 0 {
		clear(sc.stateStamp)
		sc.searchEpoch = 1
	}
}

// FlatView is the devirtualized twin of View: the same per-slot routing
// graph — CSR ISL fabric plus the request's USL endpoint edges — walked
// by the specialised search below as direct slice iteration instead
// of interface dispatch. It is embedded in its SearchScratch and
// re-initialised in place by BuildView, so building one allocates
// nothing once the scratch is warm.
type FlatView struct {
	sc    *SearchScratch
	state *State
	prov  *topology.Provider
	csr   *topology.CSR

	slot       int
	demandMbps float64
	cost       EdgeCostFunc

	src, dst   topology.Endpoint
	srcGID     int
	dstGID     int
	srcVisible []int
	numSats    int

	// IdleISLCost, when non-zero, is the owner of the cost function
	// declaring what it returns for an ISL nobody has reserved in this
	// slot: cost(key, ClassISL, capacity, 0), the same bits for every key.
	// The view then answers for such an edge from its ledger cell alone —
	// no cost-function call (see islCost). Only the owner can know its
	// function ignores the key (ERA's does not), so zero means undeclared
	// and BuildView clears it: a scratch is shared by every algorithm of a
	// run, a declaration belongs to the one that set it.
	IdleISLCost float64

	// islRow is the slot's ISL ledger row (nil: nothing reserved in the
	// slot) and idleCost the armed idle shortcut (zero: off). Both are
	// taken by begin when a search or an edge walk starts, not by
	// BuildView: a reservation made in between may replace a nil row.
	islRow   []float64
	idleCost float64
}

// BuildView initialises the scratch's FlatView for one (request, slot)
// pair: the fast-path analogue of NewView. The returned view is valid
// until the next BuildView on the same scratch.
func (sc *SearchScratch) BuildView(state *State, slot int, src, dst topology.Endpoint, demandMbps float64, cost EdgeCostFunc) (*FlatView, error) {
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
	sc.ensure(prov.NumSats())
	sc.bumpViewEpoch()
	for _, sat := range dstVis {
		sc.dstStamp[sat] = sc.viewEpoch
	}
	sc.view = FlatView{
		sc:         sc,
		state:      state,
		prov:       prov,
		csr:        prov.ISLCSR(),
		slot:       slot,
		demandMbps: demandMbps,
		cost:       cost,
		src:        src,
		dst:        dst,
		srcGID:     prov.GlobalID(src),
		dstGID:     prov.GlobalID(dst),
		srcVisible: srcVis,
		numSats:    prov.NumSats(),
	}
	sc.uses++
	if sc.uses > 1 {
		state.instr.scratchReuses.Inc()
	}
	return &sc.view, nil
}

// N mirrors View.N: satellites plus the two endpoint nodes.
func (v *FlatView) N() int { return v.numSats + 2 }

// SrcNode returns the search-space node index of the request source.
func (v *FlatView) SrcNode() int { return v.numSats }

// DstNode returns the search-space node index of the request destination.
func (v *FlatView) DstNode() int { return v.numSats + 1 }

// Slot returns the slot this view prices.
func (v *FlatView) Slot() int { return v.slot }

// DemandMbps returns the per-slot demand the view was built for.
func (v *FlatView) DemandMbps() float64 { return v.demandMbps }

// globalID maps a search node to the provider's global node-ID space.
func (v *FlatView) globalID(node int) int {
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
func (v *FlatView) LinkKeyFor(from, to int) LinkKey {
	return MakeLinkKey(v.globalID(from), v.globalID(to))
}

// price replicates View.priceEdge on a link whose reservation is already
// in hand: capacity feasibility masks the edge before the cost function
// prices it. Masked edges feed the blame scratch exactly like the
// generic path. A blocked edge relaxed from both of its satellite's
// incoming-class states is reported twice, which is harmless:
// noteBlockedLink keeps the maximum utilization, and the second report
// carries the same one.
func (v *FlatView) price(key LinkKey, class graph.EdgeClass, capacity, used float64) float64 {
	if used+v.demandMbps > capacity*(1+1e-12) {
		v.state.noteBlockedLink(key, used/capacity)
		return math.Inf(1)
	}
	return v.cost(key, class, capacity, used/capacity)
}

// uslCost prices the USL between an endpoint node and a satellite; the
// reservation comes from the slot's USL cells.
func (v *FlatView) uslCost(from, to int) float64 {
	key := v.LinkKeyFor(from, to)
	return v.price(key, graph.ClassUSL, v.state.uslCapMbps, v.state.usl[v.slot][key])
}

// begin takes what the ISL relaxations of one search (or edge walk) all
// read: the slot's ledger row, and the declared idle cost if the shortcut
// may fire. It may only while the demand by itself fits an ISL: price
// masks an edge when used+demand > capacity·(1+1e-12), which at used == 0
// is the negation of the guard below, so an idle edge is then never
// masked and answering for it without price skips no noteBlockedLink.
func (v *FlatView) begin() {
	v.islRow = v.state.isl[v.slot]
	v.idleCost = 0
	if v.demandMbps <= v.state.islCapMbps*(1+1e-12) {
		v.idleCost = v.IdleISLCost
	}
}

// islCost returns the priced cost of CSR edge idx (sat -> to). The
// reservation is read from the slot's ledger row by the edge index the
// caller is iterating — no key, no hash. A view whose idle cost is armed
// reads it first and answers for an ISL that holds none from that one
// cell; a view that declared nothing takes exactly the steps it always
// took. Any other edge is priced through the cost function.
func (v *FlatView) islCost(idx, sat, to int) float64 {
	row := v.islRow
	if v.idleCost != 0 && (row == nil || row[idx] == 0) {
		return v.idleCost
	}
	used := 0.0
	if row != nil {
		used = row[idx]
	}
	return v.price(MakeLinkKey(sat, to), graph.ClassISL, v.state.islCapMbps, used)
}

// VisitNeighbors walks the view's edges in the exact order the search
// relaxes them (src: visible-sat USLs; sat: CSR ISLs, then the
// dst USL last; dst: sink), emitting +Inf-priced edges like the generic
// View does. The search does not use it — it exists so cross-check tests
// and debugging tools can compare a FlatView against a View edge for
// edge.
func (v *FlatView) VisitNeighbors(node int, fn func(graph.Edge) bool) {
	v.begin()
	switch {
	case node == v.SrcNode():
		for _, sat := range v.srcVisible {
			c := v.uslCost(node, sat)
			if !fn(graph.Edge{To: sat, Class: graph.ClassUSL, Cost: c}) {
				return
			}
		}
	case node == v.DstNode():
		// Destination is a sink.
	default:
		for i, end := int(v.csr.Offsets[node]), int(v.csr.Offsets[node+1]); i < end; i++ {
			to := int(v.csr.To[i])
			c := v.islCost(i, node, to)
			if !fn(graph.Edge{To: to, Class: graph.ClassISL, Cost: c}) {
				return
			}
		}
		if v.sc.dstStamp[node] == v.sc.viewEpoch {
			c := v.uslCost(node, v.DstNode())
			if !fn(graph.Edge{To: v.DstNode(), Class: graph.ClassUSL, Cost: c}) {
				return
			}
		}
	}
}

// Search finds the min-cost src->dst path over this view with Dijkstra
// over (node, incoming-class) states — the flat twin of
// graph.ShortestPath, with the same transit-cost semantics.
//
// The second parameter is ignored. It selected a hop-limited search that
// no longer exists and is kept only because benchmark/layers.go, which a
// main-module PR may not edit, calls Search(nil, 0, 0, +Inf); the next
// benchmark PR drops it (ROADMAP item 21).
//
// budgetBase and budgetLimit implement opt-in budget pruning: a search
// whose accumulated plan price budgetBase plus the cheapest frontier cost
// exceeds budgetLimit is abandoned, because admission would reject any
// completion. Pass budgetLimit = +Inf to disable. The third return value
// reports whether pruning discarded anything: when the search then fails,
// the caller should classify the rejection as priced-out rather than
// no-path.
//
// Pruning is exact, not heuristic. It happens at pop time only: pop costs
// are nondecreasing, so the first over-budget pop proves every remaining
// completion is over budget (floating-point addition of non-negative
// terms is monotone) — and until that point the heap's dynamics are
// bit-identical to an unpruned run, so accepted requests take exactly the
// same paths.
func (v *FlatView) Search(transit graph.TransitCostFunc, _ int, budgetBase, budgetLimit float64) (path graph.Path, ok, pruned bool) {
	// Search wall time feeds the serving layer's per-request phase
	// breakdown; the counter is nil (one branch, no clock reads) unless
	// trace detail is enabled on the state.
	var t0 time.Time
	in := v.state.SearchInstruments()
	timed := in != nil && in.SearchNanos != nil
	if timed {
		t0 = time.Now()
	}
	v.begin()
	path, ok, pruned = v.dijkstra(transit, budgetBase, budgetLimit)
	if timed {
		in.SearchNanos.Add(time.Since(t0).Nanoseconds())
	}
	return path, ok, pruned
}

// dijkstra is the flat twin of graph.ShortestPath over this view.
func (v *FlatView) dijkstra(transit graph.TransitCostFunc, budgetBase, budgetLimit float64) (graph.Path, bool, bool) {
	sc := v.sc
	in := v.state.SearchInstruments()
	var pops, relaxes, prunedN int64
	pruned := false

	sc.bumpSearchEpoch()
	epoch := sc.searchEpoch
	dist, prev, stamp := sc.dist, sc.prev, sc.stateStamp

	srcNode, dstNode := v.SrcNode(), v.DstNode()
	start := srcNode*graph.NumClasses + int(graph.ClassNone)
	dist[start] = 0
	prev[start] = flatPred{state: -1}
	stamp[start] = epoch

	h := &sc.heap
	h.reset()
	h.push(flatItem{state: int32(start), dist: 0})

	// relax mirrors the generic search's closure body: strict-< on the
	// stamped dist, first writer wins.
	relax := func(from int32, fromDist float64, to int, cls graph.EdgeClass, edgeCost, w float64) {
		ns := to*graph.NumClasses + int(cls)
		nd := fromDist + w
		if stamp[ns] == epoch && nd >= dist[ns] {
			return
		}
		dist[ns] = nd
		prev[ns] = flatPred{state: from, cost: edgeCost}
		stamp[ns] = epoch
		h.push(flatItem{state: int32(ns), dist: nd})
	}

	var path graph.Path
	found := false
	for len(h.items) > 0 {
		cur := h.pop()
		pops++
		st := int(cur.state)
		if cur.dist > dist[st] {
			continue // stale entry
		}
		// Budget cutoff: pop costs are nondecreasing, so once the
		// cheapest frontier label is over budget, every completion is.
		if budgetBase+cur.dist > budgetLimit {
			pruned = true
			prunedN += int64(len(h.items)) + 1
			break
		}
		node := st / graph.NumClasses
		inClass := graph.EdgeClass(st % graph.NumClasses)
		if node == dstNode {
			path = v.reconstruct(st, cur.dist)
			found = true
			break
		}
		switch {
		case node == srcNode:
			for _, sat := range v.srcVisible {
				relaxes++
				c := v.uslCost(srcNode, sat)
				if math.IsInf(c, 1) {
					continue
				}
				// The source pays no transit (node == src in the
				// generic search).
				relax(cur.state, cur.dist, sat, graph.ClassUSL, c, c)
			}
		default:
			sat := node
			// What leaving over an ISL costs is fixed by the popped state,
			// not by the edge: ask at the first edge that is not masked,
			// reuse the answer for the others, and never ask when all are
			// masked — the one call lands where the first of four did.
			tc, asked := 0.0, transit == nil
			for i, end := int(v.csr.Offsets[sat]), int(v.csr.Offsets[sat+1]); i < end; i++ {
				relaxes++
				to := int(v.csr.To[i])
				c := v.islCost(i, sat, to)
				if math.IsInf(c, 1) {
					continue
				}
				if !asked {
					tc, asked = transit(sat, inClass, graph.ClassISL), true
				}
				if math.IsInf(tc, 1) {
					continue
				}
				w := c
				if transit != nil {
					w += tc
				}
				relax(cur.state, cur.dist, to, graph.ClassISL, c, w)
			}
			if sc.dstStamp[sat] == sc.viewEpoch {
				relaxes++
				c := v.uslCost(sat, dstNode)
				if !math.IsInf(c, 1) {
					w := c
					ok := true
					if transit != nil {
						tc := transit(sat, inClass, graph.ClassUSL)
						if math.IsInf(tc, 1) {
							ok = false
						} else {
							w += tc
						}
					}
					if ok {
						relax(cur.state, cur.dist, dstNode, graph.ClassUSL, c, w)
					}
				}
			}
		}
	}
	if in != nil {
		in.HeapPops.Add(pops)
		in.EdgeRelaxations.Add(relaxes)
		in.FastPathSearches.Inc()
		in.PrunedLabels.Add(prunedN)
	}
	return path, found, pruned
}

// reconstruct walks the predecessor links back to the source twice: once
// to count the hops, once to write the path from its end. An edge's
// target and class are those of the state it reaches.
func (v *FlatView) reconstruct(dstState int, cost float64) graph.Path {
	prev := v.sc.prev
	hops := 0
	for s := dstState; prev[s].state >= 0; s = int(prev[s].state) {
		hops++
	}
	nodes, edges := make([]int, hops+1), make([]graph.Edge, hops)
	s := dstState
	for i := hops; i > 0; i-- {
		nodes[i] = s / graph.NumClasses
		edges[i-1] = graph.Edge{To: nodes[i], Class: graph.EdgeClass(s % graph.NumClasses), Cost: prev[s].cost}
		s = int(prev[s].state)
	}
	nodes[0] = s / graph.NumClasses
	return graph.Path{Nodes: nodes, Edges: edges, Cost: cost}
}

// AppendConsumptions is the allocation-free twin of View.PathConsumptions:
// it appends the path's per-satellite energy consumptions to buf (reset
// to length zero first) and returns the extended slice, so one buffer
// serves every slot of a run.
func (v *FlatView) AppendConsumptions(p graph.Path, buf []Consumption) []Consumption {
	buf = buf[:0]
	if len(p.Nodes) < 3 {
		return buf
	}
	slotSec := v.prov.Config().SlotSeconds
	for i := 1; i < len(p.Nodes)-1; i++ {
		sat := p.Nodes[i]
		inClass := p.Edges[i-1].Class
		outClass := p.Edges[i].Class
		j := v.state.energyCfg.TransitEnergyJ(inClass, outClass, v.demandMbps, slotSec)
		if j > 0 {
			buf = append(buf, Consumption{Sat: sat, Slot: v.slot, Joules: j})
		}
	}
	return buf
}
