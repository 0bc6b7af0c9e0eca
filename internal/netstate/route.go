package netstate

import (
	"errors"
	"fmt"

	"spacebooking/internal/energy"
	"spacebooking/internal/graph"
	"spacebooking/internal/topology"
)

// SlotSearch is what an algorithm tells the slot step about its searches:
// how it prices an edge and a transit, and — CEAR only — the two hints the
// flat search takes from the owner of those functions (see the FlatView
// fields of the same names). The algorithm keeps one and passes it by
// pointer, updating per slot whatever depends on the slot's demand.
type SlotSearch struct {
	EdgeCost    EdgeCostFunc
	Transit     graph.TransitCostFunc
	LookAhead   LookAheadFunc
	IdleISLCost float64
}

// SlotOutcome says how RouteSlot left one slot of a request.
type SlotOutcome int

const (
	// SlotFailed: the step could not run (an input no view accepts) or a
	// reservation the search had just proven feasible was refused (a bug).
	// The error says which; the request cannot be decided.
	SlotFailed SlotOutcome = iota
	// SlotRouted: the path is reserved and its energy consumed in the
	// transaction.
	SlotRouted
	// SlotNoPath: no path with room for the demand exists in the slot.
	SlotNoPath
	// SlotBudgetPruned: the search stopped because every completion would
	// take the plan price past the budget.
	SlotBudgetPruned
	// SlotEnergyInfeasible: the min-cost path's draws do not fit its
	// batteries together; the error is the refused draw's and names the
	// satellite.
	SlotEnergyInfeasible
)

// NewReferenceScratch returns a scratch whose RouteSlot runs the reference
// implementation — a fresh View, graph.ShortestPath and PathConsumptions
// per slot — instead of the flat search. Decisions are identical either
// way; tests hand it to a run wherever a SearchScratch is accepted to
// cross-check the fast path, and no algorithm can tell which it holds.
// The reference ignores the two flat-only hints and applies the budget to
// the path it found rather than inside the search: it calls an over-budget
// slot pruned exactly when the flat search does, except that a slot with no
// path at all is always SlotNoPath (the flat search may run out of budget
// before it runs out of graph).
func NewReferenceScratch() *SearchScratch { return &SearchScratch{reference: true} }

// RouteSlot is the one step every admission algorithm runs per active
// slot of a request (Algorithm 1, lines 2-4 and 7-16 for one slot): find
// the min-cost src->dst path for the demand under the algorithm's prices,
// consume its energy and then reserve its bandwidth inside txn, so the
// next slot's search sees them. spent and budget prune the search exactly
// as FlatView.Search documents; pass budget = +Inf to search exhaustively.
//
// The path is returned for SlotRouted and SlotEnergyInfeasible. The error
// is non-nil for SlotFailed and SlotEnergyInfeasible only. On every outcome
// but SlotRouted the caller rolls the transaction back: a refused draw
// leaves the slot's earlier draws applied, and a failed reservation part
// of the path reserved.
func (sc *SearchScratch) RouteSlot(txn *Txn, slot int, src, dst topology.Endpoint, demandMbps float64,
	search *SlotSearch, spent, budget float64) (graph.Path, SlotOutcome, error) {
	state := txn.state
	var (
		path       graph.Path
		ok, pruned bool
		sv         SlotView
		cons       []Consumption
	)
	if sc.reference {
		view, err := NewView(state, slot, src, dst, demandMbps, search.EdgeCost)
		if err != nil {
			return graph.Path{}, SlotFailed, err
		}
		path, ok = graph.ShortestPath(view, view.SrcNode(), view.DstNode(), search.Transit)
		if ok && spent+path.Cost > budget {
			ok, pruned = false, true
		}
		if ok {
			cons = view.PathConsumptions(path)
		}
		sv = view
	} else {
		view, err := sc.BuildView(state, slot, src, dst, demandMbps, search.EdgeCost)
		if err != nil {
			return graph.Path{}, SlotFailed, err
		}
		view.LookAhead = search.LookAhead
		view.IdleISLCost = search.IdleISLCost
		if path, ok, pruned = view.Search(search.Transit, 0, spent, budget); ok {
			sc.consBuf = view.AppendConsumptions(path, sc.consBuf)
			cons = sc.consBuf
		}
		sv = view
	}
	if !ok {
		if pruned {
			return graph.Path{}, SlotBudgetPruned, nil
		}
		return graph.Path{}, SlotNoPath, nil
	}

	// The transit mask checks each (satellite, role) draw on its own, but a
	// path may visit one satellite in two roles (ingress and egress gateway
	// of the same slot, say) whose draws are individually feasible yet
	// jointly not: the transaction's own atomic-per-battery Consume gives
	// that verdict. The energy goes first so that a refused slot has
	// touched no link — Rollback restores battery cells bit for bit, but a
	// released link keeps the (a+r)−r dust.
	if err := txn.Consume(cons); err != nil {
		var depleted *energy.DepletionError
		if errors.As(err, &depleted) {
			return path, SlotEnergyInfeasible, err
		}
		return path, SlotFailed, fmt.Errorf("consume energy along path %v: %w", path.Nodes, err)
	}
	if err := txn.ReservePath(sv, path); err != nil {
		return path, SlotFailed, fmt.Errorf("reserve path %v: %w", path.Nodes, err)
	}
	return path, SlotRouted, nil
}
