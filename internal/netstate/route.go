package netstate

import (
	"errors"
	"fmt"

	"spacebooking/internal/energy"
	"spacebooking/internal/graph"
	"spacebooking/internal/router"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// SlotSearch is what an algorithm tells the slot step about its searches:
// how it prices an edge and a transit, and — CEAR only — the idle-ISL hint
// the flat search takes from the owner of those functions (see the FlatView
// field of the same name). The algorithm keeps one and passes it by
// pointer. Begin, which Admit calls before each slot's search, points the
// bound functions at that slot and its demand and updates whatever depends
// on them; all three functions are bound once, at construction.
type SlotSearch struct {
	Begin       func(slot int, demand float64)
	EdgeCost    EdgeCostFunc
	Transit     graph.TransitCostFunc
	IdleISLCost float64
}

// Admit is Algorithm 1 (lines 1-16) for one request, the loop every
// admission algorithm runs: each active slot in order is begun on search
// and routed by RouteSlot inside one transaction, so a slot's search sees
// the request's own earlier slots. The first slot that is not routed rolls
// the transaction back and rejects with its reason. A plan whose summed
// path cost exceeds valuation (line 6) is rolled back and rejected with
// its price and plan; any other plan is committed and accepted. budget
// prunes the searches (RouteSlot); +Inf for either bound turns its test
// off.
//
// Routing the slots in order is the one refinement of the paper, which
// prices every slot against the pre-request state: under the evaluation's
// assumption-violating valuations that form can admit jointly
// energy-infeasible plans (see DESIGN.md).
//
// The searches run on the state's scratch (SetScratch), created here on
// first use. Errors are an invalid request or a SlotFailed slot, never a
// rejection.
func (s *State) Admit(req workload.Request, search *SlotSearch, valuation, budget float64) (router.Decision, error) {
	if err := req.Validate(s.prov.Horizon()); err != nil {
		return router.Decision{}, err
	}
	if s.scratch == nil {
		s.scratch = NewSearchScratch()
	}
	sc := s.scratch
	price := 0.0
	plan := router.Plan{Paths: make([]router.SlotPath, 0, req.DurationSlots())}
	txn := s.Begin()
	for slot := req.StartSlot; slot <= req.EndSlot; slot++ {
		demand := req.RateAt(slot)
		search.Begin(slot, demand)
		path, outcome, err := sc.RouteSlot(txn, slot, req.Src, req.Dst, demand, search, price, budget)
		if outcome != SlotRouted {
			txn.Rollback()
			var reason string
			switch outcome {
			case SlotFailed:
				return router.Decision{}, fmt.Errorf("request %d slot %d: %w", req.ID, slot, err)
			case SlotBudgetPruned:
				// Every completion of this slot's search exceeds the
				// budget: priced out, not unroutable.
				reason = fmt.Sprintf("plan price exceeds valuation %.3g (budget-pruned at slot %d)", budget, slot)
			case SlotEnergyInfeasible:
				reason = fmt.Sprintf("energy infeasible at slot %d: %v", slot, err)
			default:
				reason = fmt.Sprintf("no feasible path at slot %d", slot)
			}
			return router.Decision{Reason: reason}, nil
		}
		price += path.Cost
		plan.Paths = append(plan.Paths, router.SlotPath{Slot: slot, Path: path})
	}
	if price > valuation {
		txn.Rollback()
		return router.Decision{
			Price:  price,
			Reason: fmt.Sprintf("plan price %.3g exceeds valuation %.3g", price, valuation),
			Plan:   plan,
		}, nil
	}
	txn.Commit()
	return router.Decision{Accepted: true, Price: price, Plan: plan}, nil
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
// way; tests hand it to a run's state (State.SetScratch) to cross-check
// the fast path, and no algorithm can tell which its state holds.
// The reference ignores the flat-only hint and applies the budget to
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
	// touched no link and counted no link reservation; Rollback restores
	// whatever the slot did touch bit for bit either way.
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
