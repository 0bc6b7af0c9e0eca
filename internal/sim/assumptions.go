package sim

import (
	"fmt"

	"spacebooking/internal/graph"
	"spacebooking/internal/netstate"
	"spacebooking/internal/pricing"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// AssumptionReport quantifies how a workload relates to the competitive
// analysis' Assumptions 1–2 (§V of the paper). The theory requires every
// request's valuation within [n𝕋·max(δ,ΣΩ), n𝕋F1+n𝕋F2] and its demand
// small relative to link and battery capacities; the paper's own
// evaluation deliberately exceeds these (§V-B), so the report is
// diagnostic, not a gate.
type AssumptionReport struct {
	Total int
	// ValuationTooHigh counts requests with ρ > n𝕋F1 + n𝕋F2.
	ValuationTooHigh int
	// ValuationTooLow counts requests with ρ below Assumption 1's floor.
	ValuationTooLow int
	// DemandTooLarge counts requests whose per-slot demand exceeds
	// Assumption 2's bound c_min / log2(μ1).
	DemandTooLarge int
	// EnergyTooLarge counts requests whose worst-case per-request energy
	// exceeds Assumption 2's bound ϖ_min / log2(μ2).
	EnergyTooLarge int
}

// Compliant reports whether every request satisfies both assumptions.
func (r AssumptionReport) Compliant() bool {
	return r.ValuationTooHigh == 0 && r.ValuationTooLow == 0 &&
		r.DemandTooLarge == 0 && r.EnergyTooLarge == 0
}

// String summarises the report.
func (r AssumptionReport) String() string {
	if r.Compliant() {
		return fmt.Sprintf("all %d requests satisfy Assumptions 1-2", r.Total)
	}
	return fmt.Sprintf("%d requests: valuation high/low %d/%d, demand over bound %d, energy over bound %d",
		r.Total, r.ValuationTooHigh, r.ValuationTooLow, r.DemandTooLarge, r.EnergyTooLarge)
}

// CheckAssumptions evaluates Assumptions 1 and 2 for a request set under
// the given pricing parameters and network constants. Energy per request
// uses the worst-case role (USL receive + USL transmit) so the check is
// conservative.
func CheckAssumptions(prov *topology.Provider, params pricing.Params, energyCfg netstate.EnergyConfig, reqs []workload.Request) (AssumptionReport, error) {
	if prov == nil {
		return AssumptionReport{}, fmt.Errorf("sim: nil provider")
	}
	cfg := prov.Config()
	minLinkCap := cfg.USLCapacityMbps
	if cfg.ISLCapacityMbps < minLinkCap {
		minLinkCap = cfg.ISLCapacityMbps
	}
	demandBound := params.DemandBound(minLinkCap)
	energyBound := params.EnergyBound(energyCfg.BatteryCapacityJ)
	nt := float64(pricing.MaxHops) * float64(pricing.MaxDurationSlots)

	var rep AssumptionReport
	for _, r := range reqs {
		if err := r.Validate(prov.Horizon()); err != nil {
			return rep, err
		}
		rep.Total++

		// Worst-case per-request energy on one satellite: USL in and out
		// in every active slot.
		totalEnergy := 0.0
		peak := 0.0
		for t := r.StartSlot; t <= r.EndSlot; t++ {
			d := r.RateAt(t)
			if d > peak {
				peak = d
			}
			totalEnergy += energyCfg.TransitEnergyJ(graph.ClassUSL, graph.ClassUSL, d, cfg.SlotSeconds)
		}

		if r.Valuation > params.MaxValuation() {
			rep.ValuationTooHigh++
		}
		floor := nt * peak
		if e := nt * totalEnergy; e > floor {
			floor = e
		}
		if r.Valuation < floor {
			rep.ValuationTooLow++
		}
		if peak > demandBound {
			rep.DemandTooLarge++
		}
		if totalEnergy > energyBound {
			rep.EnergyTooLarge++
		}
	}
	return rep, nil
}
