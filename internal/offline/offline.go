// Package offline estimates the offline optimum of Definition 1 for
// empirical competitive-ratio reporting.
//
// The exact offline problem is an NP-hard integer program; with no LP
// solver in the standard library we report a *greedy* offline welfare:
// requests sorted by valuation (ties broken by smaller resource
// footprint), admitted with feasibility-only routing on a fresh network.
// The greedy value lower-bounds OPT, so ratios computed against it are
// optimistic lower bounds on the true empirical competitive ratio — see
// EXPERIMENTS.md.
package offline

import (
	"fmt"
	"sort"

	"spacebooking/internal/baselines"
	"spacebooking/internal/netstate"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// Result summarises a greedy offline run.
type Result struct {
	Welfare       float64
	Accepted      int
	TotalRequests int
}

// Greedy computes the offline greedy welfare: the whole sequence sorted by
// valuation (ties broken by smaller resource footprint Σ_t δ_i(t)) and fed
// to the SSP baseline — min-hop routing behind the battery-feasibility
// mask, committed slot by slot — over a fresh resource state built from
// the provider and energy configuration (strict batteries: the offline
// algorithm is also bandwidth- and energy-constrained, per Lemma 3). Every
// accepted plan is a committed feasible reservation, so the welfare is
// that of a feasible offline solution and lower-bounds OPT.
func Greedy(prov *topology.Provider, energyCfg netstate.EnergyConfig, reqs []workload.Request) (Result, error) {
	if prov == nil {
		return Result{}, fmt.Errorf("offline: nil provider")
	}
	state, err := netstate.New(prov, energyCfg, false)
	if err != nil {
		return Result{}, err
	}
	return greedyOn(state, reqs)
}

// greedyOn is Greedy over a state the caller built (and can inspect).
func greedyOn(state *netstate.State, reqs []workload.Request) (Result, error) {
	ssp, err := baselines.NewSSP(state)
	if err != nil {
		return Result{}, err
	}

	res := Result{TotalRequests: len(reqs)}
	for _, req := range valuationOrder(reqs) {
		d, err := ssp.Handle(req)
		if err != nil {
			return Result{}, fmt.Errorf("offline: %w", err)
		}
		if d.Accepted {
			res.Accepted++
			res.Welfare += req.Valuation
		}
	}
	return res, nil
}

// valuationOrder returns the requests in the order Greedy admits them:
// by descending valuation, then ascending footprint, then arrival.
func valuationOrder(reqs []workload.Request) []workload.Request {
	footprint := func(r workload.Request) float64 {
		total := 0.0
		for t := r.StartSlot; t <= r.EndSlot; t++ {
			total += r.RateAt(t)
		}
		return total
	}
	sorted := append([]workload.Request(nil), reqs...)
	sort.SliceStable(sorted, func(a, b int) bool {
		ra, rb := sorted[a], sorted[b]
		if ra.Valuation != rb.Valuation {
			return ra.Valuation > rb.Valuation
		}
		return footprint(ra) < footprint(rb)
	})
	return sorted
}
