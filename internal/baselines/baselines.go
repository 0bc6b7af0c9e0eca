// Package baselines implements the four comparison algorithms of §VI-A:
//
//   - SSP  — Single Shortest Path: min-hop routing, no resource awareness.
//   - ECARS — linear weighted routing over link congestion and satellite
//     battery level (congestion factor 0.3, energy factor 0.35).
//   - ERU  — ECARS plus link pruning once a satellite's battery discharge
//     exceeds an energy threshold (depth-of-discharge protection).
//   - ERA  — ECARS plus factor re-weighting (0.15/0.7) once the threshold
//     is exceeded, instead of pruning.
//
// None of them performs admission control or pricing: a request is
// accepted whenever a physically feasible path (bandwidth per constraint
// (7b), battery per constraint (7c)) exists in every active slot (§VI-B).
// Unlike CEAR they do not price resources, so they greedily drive
// satellites toward the battery-feasibility edge — producing the
// depleted-satellite counts of Fig. 7.
package baselines

import (
	"fmt"
	"math"

	"spacebooking/internal/graph"
	"spacebooking/internal/netstate"
	"spacebooking/internal/router"
	"spacebooking/internal/workload"
)

// WeightOptions holds the linear-weight parameters shared by ECARS, ERU
// and ERA, with the paper's defaults.
type WeightOptions struct {
	// CongestionFactor and EnergyFactor weight link utilization and
	// battery depletion in the path metric (0.3 and 0.35 in §VI-A).
	CongestionFactor float64
	EnergyFactor     float64
	// OverCongestionFactor and OverEnergyFactor replace the factors for
	// satellites beyond the energy threshold (ERA only; 0.15 and 0.7).
	OverCongestionFactor float64
	OverEnergyFactor     float64
	// EnergyThresholdWMinPerMbit is the depth-of-discharge trigger of
	// ERU/ERA (5e-6 W·min/Mbit in §VI-A). A satellite is over-threshold
	// in a slot when its battery deficit exceeds this unit value scaled
	// by the per-slot ISL capacity; see DESIGN.md substitution #5.
	EnergyThresholdWMinPerMbit float64
}

// DefaultWeightOptions returns the paper's parameter values.
func DefaultWeightOptions() WeightOptions {
	return WeightOptions{
		CongestionFactor:           0.3,
		EnergyFactor:               0.35,
		OverCongestionFactor:       0.15,
		OverEnergyFactor:           0.7,
		EnergyThresholdWMinPerMbit: 5e-6,
	}
}

// Validate reports invalid weight settings.
func (o WeightOptions) Validate() error {
	if o.CongestionFactor < 0 || o.EnergyFactor < 0 ||
		o.CongestionFactor+o.EnergyFactor > 1 {
		return fmt.Errorf("baselines: congestion/energy factors (%v, %v) must be non-negative and sum to at most 1",
			o.CongestionFactor, o.EnergyFactor)
	}
	if o.OverCongestionFactor < 0 || o.OverEnergyFactor < 0 ||
		o.OverCongestionFactor+o.OverEnergyFactor > 1 {
		return fmt.Errorf("baselines: over-threshold factors (%v, %v) invalid",
			o.OverCongestionFactor, o.OverEnergyFactor)
	}
	if o.EnergyThresholdWMinPerMbit <= 0 {
		return fmt.Errorf("baselines: energy threshold must be positive, got %v", o.EnergyThresholdWMinPerMbit)
	}
	return nil
}

// mode selects the concrete baseline behaviour.
type mode int

const (
	modeSSP mode = iota + 1
	modeECARS
	modeERU
	modeERA
)

// Baseline is a feasibility-only admission algorithm with a pluggable
// path metric.
type Baseline struct {
	state *netstate.State
	mode  mode
	opts  WeightOptions
	// thresholdJ is the precomputed over-threshold deficit in joules.
	thresholdJ float64

	// Routing state, mirroring core.CEAR: the pooled search scratch and
	// the cost/transit functions the slot step is handed, bound once at
	// construction (method values reading curSlot/curRate, so the slot
	// loop allocates no closures).
	scratch *netstate.SearchScratch
	search  netstate.SlotSearch
	curSlot int
	curRate float64
	slotSec float64
	ecfg    netstate.EnergyConfig
	numSats int
}

var _ router.Algorithm = (*Baseline)(nil)

func newBaseline(state *netstate.State, m mode, opts WeightOptions) (*Baseline, error) {
	if state == nil {
		return nil, fmt.Errorf("baselines: nil state")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cfg := state.Provider().Config()
	// θ [W·min/Mbit] × 60 [J per W·min] × per-slot ISL capacity [Mbit].
	thresholdJ := opts.EnergyThresholdWMinPerMbit * 60 * cfg.ISLCapacityMbps * cfg.SlotSeconds
	b := &Baseline{
		state:      state,
		mode:       m,
		opts:       opts,
		thresholdJ: thresholdJ,
		scratch:    netstate.NewSearchScratch(),
		slotSec:    cfg.SlotSeconds,
		ecfg:       state.EnergyConfig(),
		numSats:    state.Provider().NumSats(),
	}
	b.search.EdgeCost = b.edgeWeight
	b.search.Transit = b.transitWeight
	return b, nil
}

// SetScratch replaces the baseline's private search scratch with a
// shared one: a pooled scratch, or netstate.NewReferenceScratch() to
// cross-check the fast path. Nil is ignored.
func (b *Baseline) SetScratch(sc *netstate.SearchScratch) {
	if sc != nil {
		b.scratch = sc
	}
}

// NewSSP builds the Single Shortest Path baseline.
func NewSSP(state *netstate.State) (*Baseline, error) {
	return newBaseline(state, modeSSP, DefaultWeightOptions())
}

// NewECARS builds the Energy and Capacity Aware Routing baseline.
func NewECARS(state *netstate.State, opts WeightOptions) (*Baseline, error) {
	return newBaseline(state, modeECARS, opts)
}

// NewERU builds the Energy Routing Pruning baseline.
func NewERU(state *netstate.State, opts WeightOptions) (*Baseline, error) {
	return newBaseline(state, modeERU, opts)
}

// NewERA builds the Energy Routing Penalty baseline.
func NewERA(state *netstate.State, opts WeightOptions) (*Baseline, error) {
	return newBaseline(state, modeERA, opts)
}

// Name implements router.Algorithm.
func (b *Baseline) Name() string {
	switch b.mode {
	case modeSSP:
		return "SSP"
	case modeECARS:
		return "ECARS"
	case modeERU:
		return "ERU"
	case modeERA:
		return "ERA"
	default:
		return "UNKNOWN"
	}
}

// overThreshold reports whether a satellite's battery discharge exceeds
// the ERU/ERA trigger in the slot.
func (b *Baseline) overThreshold(sat, slot int) bool {
	return b.state.Battery(sat).DeficitAt(slot) > b.thresholdJ
}

// hopBias is the residual weight that keeps paths short: what remains of
// the unit hop weight after the congestion and energy factors.
func (o WeightOptions) hopBias() float64 {
	return 1 - o.CongestionFactor - o.EnergyFactor
}

// transitWeight is every baseline's node transit cost for the current
// (curSlot, curRate): the physical battery-feasibility mask (constraint
// (7c)) composed with the mode's energy weight. Bound once as
// b.search.Transit. No algorithm may route through a satellite whose battery
// cannot carry the traffic; ERU additionally prunes over-threshold
// satellites outright, checked before the mask (so its deficit-walk
// counts match the original closure composition).
func (b *Baseline) transitWeight(node int, in, out graph.EdgeClass) float64 {
	if b.mode == modeERU && b.overThreshold(node, b.curSlot) {
		return math.Inf(1)
	}
	joules := b.ecfg.TransitEnergyJ(in, out, b.curRate, b.slotSec)
	if !b.state.Battery(node).Feasible(b.curSlot, joules) {
		return math.Inf(1)
	}
	switch b.mode {
	case modeSSP:
		// Min-hop: the physical mask only.
		return 0
	case modeERA:
		ef := b.opts.EnergyFactor
		if b.overThreshold(node, b.curSlot) {
			ef = b.opts.OverEnergyFactor
		}
		return ef * b.state.Battery(node).UtilizationAt(b.curSlot)
	default: // ECARS and ERU share the linear energy weight.
		return b.opts.EnergyFactor * b.state.Battery(node).UtilizationAt(b.curSlot)
	}
}

// edgeWeight is the per-edge cost of this baseline for the current
// slot. Bound once as b.search.EdgeCost.
func (b *Baseline) edgeWeight(key netstate.LinkKey, class graph.EdgeClass, capacity, utilization float64) float64 {
	switch b.mode {
	case modeSSP:
		return 1
	case modeERA:
		cf, bias := b.opts.CongestionFactor, b.opts.hopBias()
		if from := key.From(); from < b.numSats && b.overThreshold(from, b.curSlot) {
			cf = b.opts.OverCongestionFactor
			bias = 1 - b.opts.OverCongestionFactor - b.opts.OverEnergyFactor
		}
		return cf*utilization + bias
	default: // ECARS and ERU share the linear edge weight.
		return b.opts.CongestionFactor*utilization + b.opts.hopBias()
	}
}

// Handle implements the feasibility-only admission shared by all
// baselines: find this algorithm's path in every active slot; if all
// exist, reserve bandwidth and consume (clamped) energy; otherwise
// reject without side effects.
func (b *Baseline) Handle(req workload.Request) (router.Decision, error) {
	if err := req.Validate(b.state.Provider().Horizon()); err != nil {
		return router.Decision{}, fmt.Errorf("baselines: %w", err)
	}

	plan := router.Plan{Paths: make([]router.SlotPath, 0, req.DurationSlots())}

	// Commit-as-you-go inside a transaction, mirroring CEAR: each slot's
	// search observes the request's own earlier consumption, and any
	// failure rolls the whole request back.
	txn := b.state.Begin()
	for slot := req.StartSlot; slot <= req.EndSlot; slot++ {
		b.curRate = req.RateAt(slot)
		b.curSlot = slot

		// Baselines do no admission pricing, so there is no budget to
		// prune against.
		path, outcome, err := b.scratch.RouteSlot(txn, slot, req.Src, req.Dst, b.curRate, &b.search, 0, math.Inf(1))
		if outcome != netstate.SlotRouted {
			txn.Rollback()
			switch outcome {
			case netstate.SlotFailed:
				return router.Decision{}, fmt.Errorf("baselines: request %d slot %d: %w", req.ID, slot, err)
			case netstate.SlotEnergyInfeasible:
				return router.Decision{Reason: fmt.Sprintf("energy infeasible at slot %d: %v", slot, err)}, nil
			default:
				return router.Decision{Reason: fmt.Sprintf("no feasible path at slot %d", slot)}, nil
			}
		}
		plan.Paths = append(plan.Paths, router.SlotPath{Slot: slot, Path: path})
	}

	txn.Commit()
	return router.Decision{Accepted: true, Plan: plan}, nil
}
