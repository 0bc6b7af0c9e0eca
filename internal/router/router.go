// Package router defines the contract shared by every request-admission
// algorithm in the simulator — CEAR and the four baselines (SSP, ECARS,
// ERU, ERA). An algorithm receives online requests one at a time and
// must immediately accept (reserving resources) or reject, per §IV-A.
package router

import (
	"spacebooking/internal/graph"
	"spacebooking/internal/workload"
)

// SlotPath is the route chosen for one active slot of a request.
type SlotPath struct {
	Slot int
	// Path is expressed in the search space of netstate.View: satellite
	// indices, with the two virtual endpoint nodes first and last.
	Path graph.Path
}

// Plan is the routing and reservation plan ψ_i of an accepted request:
// one path per active slot.
type Plan struct {
	Paths []SlotPath
}

// TotalHops returns the summed hop count across all slots (a proxy for
// resource footprint used in reporting).
func (p Plan) TotalHops() int {
	total := 0
	for _, sp := range p.Paths {
		total += sp.Path.Hops()
	}
	return total
}

// Decision is the outcome of handling one request.
type Decision struct {
	Accepted bool
	// Price is the total resource price σ(ψ_i*) quoted for the plan.
	// For CEAR this is the payment π_i; baselines quote zero.
	Price float64
	// Reason is a short explanation for rejections ("" when accepted).
	Reason string
	Plan   Plan
}

// Algorithm is an online request-admission and routing algorithm.
// Implementations own their resource state and mutate it on accept; the
// display name is the run's sim.AlgorithmKind.
type Algorithm interface {
	// Handle processes one online request. Errors indicate internal
	// failures (bugs, inconsistent state), not rejections.
	Handle(req workload.Request) (Decision, error)
}
