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

// The linear weights of ECARS, ERU and ERA, as §VI-A sets them.
const (
	// congestionFactor and energyFactor weight link utilization and
	// battery depletion in the path metric.
	congestionFactor = 0.3
	energyFactor     = 0.35
	// overCongestionFactor and overEnergyFactor replace them for
	// satellites beyond the energy threshold (ERA only).
	overCongestionFactor = 0.15
	overEnergyFactor     = 0.7
	// energyThresholdWMinPerMbit is the depth-of-discharge trigger of
	// ERU/ERA. A satellite is over-threshold in a slot when its battery
	// deficit exceeds this unit value scaled by the per-slot ISL
	// capacity; see DESIGN.md substitution #5.
	energyThresholdWMinPerMbit = 5e-6
)

// hopBias and overHopBias are the residual weights that keep paths short:
// what remains of the unit hop weight after the congestion and energy
// factors, below and beyond the threshold. residual takes float64
// arguments so that each subtraction rounds as float64 arithmetic does; a
// constant expression would be evaluated exactly and could differ in the
// last bit.
var (
	hopBias     = residual(congestionFactor, energyFactor)
	overHopBias = residual(overCongestionFactor, overEnergyFactor)
)

func residual(cf, ef float64) float64 { return 1 - cf - ef }

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
	// thresholdJ is the precomputed over-threshold deficit in joules.
	thresholdJ float64

	// Routing state, mirroring core.CEAR: the begin/cost/transit functions
	// the slot step is handed, bound once at construction (method values
	// reading curSlot/curRate, so the slot loop allocates no closures).
	search  netstate.SlotSearch
	curSlot int
	curRate float64
	slotSec float64
	ecfg    netstate.EnergyConfig
	numSats int
}

var _ router.Algorithm = (*Baseline)(nil)

func newBaseline(state *netstate.State, m mode) (*Baseline, error) {
	if state == nil {
		return nil, fmt.Errorf("baselines: nil state")
	}
	cfg := state.Provider().Config()
	// θ [W·min/Mbit] × 60 [J per W·min] × per-slot ISL capacity [Mbit],
	// multiplied left to right in float64.
	theta := float64(energyThresholdWMinPerMbit)
	thresholdJ := theta * 60 * cfg.ISLCapacityMbps * cfg.SlotSeconds
	b := &Baseline{
		state:      state,
		mode:       m,
		thresholdJ: thresholdJ,
		slotSec:    cfg.SlotSeconds,
		ecfg:       state.EnergyConfig(),
		numSats:    state.Provider().NumSats(),
	}
	b.search.Begin = b.beginSearch
	b.search.EdgeCost = b.edgeWeight
	b.search.Transit = b.transitWeight
	return b, nil
}

// NewSSP builds the Single Shortest Path baseline.
func NewSSP(state *netstate.State) (*Baseline, error) {
	return newBaseline(state, modeSSP)
}

// NewECARS builds the Energy and Capacity Aware Routing baseline.
func NewECARS(state *netstate.State) (*Baseline, error) {
	return newBaseline(state, modeECARS)
}

// NewERU builds the Energy Routing Pruning baseline.
func NewERU(state *netstate.State) (*Baseline, error) {
	return newBaseline(state, modeERU)
}

// NewERA builds the Energy Routing Penalty baseline.
func NewERA(state *netstate.State) (*Baseline, error) {
	return newBaseline(state, modeERA)
}

// overThreshold reports whether a satellite's battery discharge exceeds
// the ERU/ERA trigger in the slot.
func (b *Baseline) overThreshold(sat, slot int) bool {
	return b.state.Battery(sat).DeficitAt(slot) > b.thresholdJ
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
		ef := float64(energyFactor)
		if b.overThreshold(node, b.curSlot) {
			ef = overEnergyFactor
		}
		return ef * b.state.Battery(node).UtilizationAt(b.curSlot)
	default: // ECARS and ERU share the linear energy weight.
		return energyFactor * b.state.Battery(node).UtilizationAt(b.curSlot)
	}
}

// edgeWeight is the per-edge cost of this baseline for the current
// slot. Bound once as b.search.EdgeCost.
func (b *Baseline) edgeWeight(key netstate.LinkKey, class graph.EdgeClass, capacity, utilization float64) float64 {
	switch b.mode {
	case modeSSP:
		return 1
	case modeERA:
		cf, bias := float64(congestionFactor), hopBias
		if from := key.From(); from < b.numSats && b.overThreshold(from, b.curSlot) {
			cf, bias = overCongestionFactor, overHopBias
		}
		return cf*utilization + bias
	default: // ECARS and ERU share the linear edge weight.
		return congestionFactor*utilization + hopBias
	}
}

// beginSearch points the bound weights at one slot search. Bound once as
// b.search.Begin.
func (b *Baseline) beginSearch(slot int, demand float64) {
	b.curSlot, b.curRate = slot, demand
}

// Handle implements the feasibility-only admission shared by all
// baselines: the shared request loop (netstate.State.Admit) under
// this algorithm's path metric, with no price test and no budget. A
// request is accepted when every active slot has a feasible path, and
// rejected without side effects otherwise. Baselines quote zero.
func (b *Baseline) Handle(req workload.Request) (router.Decision, error) {
	d, err := b.state.Admit(req, &b.search, math.Inf(1), math.Inf(1))
	if err != nil {
		return router.Decision{}, fmt.Errorf("baselines: %w", err)
	}
	d.Price = 0
	return d, nil
}
