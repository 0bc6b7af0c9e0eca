// Package sim orchestrates one simulation run of the paper's evaluation:
// it wires a dynamic-topology provider, a fresh resource state, one
// admission algorithm (CEAR or a baseline), and an online request
// sequence, then collects the metrics of §VI-A — social-welfare ratio,
// energy-depleted satellite counts, congested-link counts, and their
// time series.
package sim

import (
	"context"
	"fmt"
	"strings"

	"spacebooking/internal/adaptive"
	"spacebooking/internal/baselines"
	"spacebooking/internal/core"
	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
	"spacebooking/internal/pricing"
	"spacebooking/internal/router"
	"spacebooking/internal/topology"
	"spacebooking/internal/trace"
	"spacebooking/internal/workload"
)

// AlgorithmKind selects the admission algorithm of a run.
type AlgorithmKind int

// Supported algorithms: the paper's five, plus CEAR's ablation variants.
const (
	AlgCEAR AlgorithmKind = iota + 1
	AlgSSP
	AlgECARS
	AlgERU
	AlgERA
	AlgCEARNoEnergy
	AlgCEARNoAdmission
	AlgCEARLinear
	// AlgCEARAdaptive is the §V-B extension: CEAR whose F1/F2 are
	// periodically re-derived from observed conditions, with a
	// moving-average load predictor (AoP-style).
	AlgCEARAdaptive
)

// String returns the display name.
func (k AlgorithmKind) String() string {
	switch k {
	case AlgCEAR:
		return "CEAR"
	case AlgSSP:
		return "SSP"
	case AlgECARS:
		return "ECARS"
	case AlgERU:
		return "ERU"
	case AlgERA:
		return "ERA"
	case AlgCEARNoEnergy:
		return "CEAR-NE"
	case AlgCEARNoAdmission:
		return "CEAR-AA"
	case AlgCEARLinear:
		return "CEAR-LIN"
	case AlgCEARAdaptive:
		return "CEAR-AD"
	default:
		return fmt.Sprintf("AlgorithmKind(%d)", int(k))
	}
}

// PaperAlgorithms returns the five algorithms compared in Figs. 6-8.
func PaperAlgorithms() []AlgorithmKind {
	return []AlgorithmKind{AlgCEAR, AlgSSP, AlgECARS, AlgERU, AlgERA}
}

// AllAlgorithms returns every supported kind, in declaration order.
func AllAlgorithms() []AlgorithmKind {
	out := make([]AlgorithmKind, 0, int(AlgCEARAdaptive))
	for k := AlgCEAR; k <= AlgCEARAdaptive; k++ {
		out = append(out, k)
	}
	return out
}

// AlgorithmNames returns the display names of every supported kind —
// the accepted inputs of ParseAlgorithm.
func AlgorithmNames() []string {
	kinds := AllAlgorithms()
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.String()
	}
	return out
}

// ParseAlgorithm maps a display name (case-insensitive) back to its
// kind. It is the inverse of AlgorithmKind.String and the single source
// of truth for the cmds' -alg flags.
func ParseAlgorithm(name string) (AlgorithmKind, error) {
	for _, k := range AllAlgorithms() {
		if strings.EqualFold(name, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown algorithm %q (want one of %s)",
		name, strings.Join(AlgorithmNames(), ", "))
}

// The Fig. 7 metrics' definitions: a link is congested when less than
// congestionThresholdFrac of its capacity remains in the slot, a
// satellite depleted when less than depletionThresholdFrac of its
// battery does.
const (
	congestionThresholdFrac = 0.1
	depletionThresholdFrac  = 0.2
)

// RunConfig parameterises one simulation run on a shared environment.
type RunConfig struct {
	Algorithm AlgorithmKind
	// Workload is the request-generation configuration (pairs included).
	Workload workload.Config
	// Energy holds the power-model constants.
	Energy netstate.EnergyConfig
	// Pricing configures CEAR (ignored by baselines).
	Pricing pricing.Params
	// PruneBudget enables budget pruning in CEAR's fast-path searches
	// (see core.Options.PruneBudget). It preserves accept/reject, plans
	// and prices bit for bit, but not the rejection reason class: a pruned run may report "priced-out" where
	// a plain run reports "no-path" or "energy-infeasible", so
	// Result.Rejections can differ.
	PruneBudget bool
	// Trace, when non-nil, receives one decision record per admission
	// (DecisionRecord: a complete, replayable recording of the run) plus
	// per-slot network snapshots.
	Trace *trace.Writer
	// SpecName labels the run's workload source in the trace run_info
	// record — the scenario spec name, or empty for the flat paper
	// workload. Replays echo the recorded name so a recording and its
	// replay produce byte-identical traces.
	SpecName string
	// Requests, when non-nil, is the run's request sequence in arrival
	// order — a scenario spec's or a replayed trace's — instead of one
	// generated from Workload. The run only reads it, so concurrent runs
	// may share one slice. Workload still configures the algorithm
	// (adaptive predictor rate) and the trace's run_info record.
	Requests []workload.Request
	// Obs, when non-nil, collects phase timings, admission counters and
	// hot-path statistics for this run. The graph-search and energy
	// counters are threaded through the run's own State, so concurrent
	// runs with distinct registries never cross-count. Nil keeps every
	// instrumented path on its no-op (allocation-free) branch.
	Obs *obs.Registry
	// HotspotK, when positive (and Obs is set), enables per-entity
	// hot-spot attribution with K-entry trackers: congestion rejections
	// per link, depletion rejections per battery, committed link
	// utilization and battery depth-of-discharge, and accept/reject
	// counts per source cell. Zero keeps every attribution site on its
	// single-branch disabled path.
	HotspotK int
}

// DefaultRunConfig returns the paper's settings for one algorithm.
func DefaultRunConfig(alg AlgorithmKind, wl workload.Config) (RunConfig, error) {
	params, err := pricing.Derive(1, 1)
	if err != nil {
		return RunConfig{}, err
	}
	return RunConfig{
		Algorithm: alg,
		Workload:  wl,
		Energy:    netstate.DefaultEnergyConfig(),
		Pricing:   params,
	}, nil
}

// Result collects everything a run produces.
type Result struct {
	Algorithm     string
	TotalRequests int
	Accepted      int
	// TotalValuation and AcceptedValuation aggregate ρ_i; their ratio is
	// the social-welfare ratio of Eq. (6) normalised by offered load.
	TotalValuation    float64
	AcceptedValuation float64
	// Revenue is Σ π_i, the operator utility (CEAR only; baselines 0).
	Revenue float64
	// WelfareRatio = AcceptedValuation / TotalValuation.
	WelfareRatio float64
	// DepletedPerSlot[t] counts satellites below the depletion threshold
	// at slot t under the final reservation state (Fig. 7 left).
	DepletedPerSlot []int
	// CongestedPerSlot[t] counts links with residual bandwidth below the
	// congestion threshold (Fig. 7 right).
	CongestedPerSlot []int
	// CumulativeWelfareRatio[t] is the welfare ratio over requests that
	// arrived in slots <= t (Fig. 8).
	CumulativeWelfareRatio []float64
	// AvgAcceptedHops is the mean per-slot path length of accepted plans.
	AvgAcceptedHops float64
	// AvgAcceptedLatencyMs is the mean one-way propagation latency of
	// accepted plans (the paper's low-latency motivation).
	AvgAcceptedLatencyMs float64
	// Rejections categorises rejection reasons.
	Rejections map[string]int
}

// MeanDepleted returns the time-average of DepletedPerSlot.
func (r *Result) MeanDepleted() float64 {
	if len(r.DepletedPerSlot) == 0 {
		return 0
	}
	sum := 0
	for _, v := range r.DepletedPerSlot {
		sum += v
	}
	return float64(sum) / float64(len(r.DepletedPerSlot))
}

// MeanCongested returns the time-average of CongestedPerSlot.
func (r *Result) MeanCongested() float64 {
	if len(r.CongestedPerSlot) == 0 {
		return 0
	}
	sum := 0
	for _, v := range r.CongestedPerSlot {
		sum += v
	}
	return float64(sum) / float64(len(r.CongestedPerSlot))
}

// cearVariants maps each CEAR kind to the variant core.New runs.
var cearVariants = map[AlgorithmKind]core.Variant{
	AlgCEAR:            core.VariantCEAR,
	AlgCEARNoEnergy:    core.VariantNoEnergy,
	AlgCEARNoAdmission: core.VariantNoAdmission,
	AlgCEARLinear:      core.VariantLinear,
}

// buildAlgorithm constructs the algorithm and its backing state. Every
// algorithm runs under constraint (7c): it is part of the problem
// definition, not a CEAR feature — baselines must also operate within
// physically available energy.
func buildAlgorithm(prov *topology.Provider, rc RunConfig) (router.Algorithm, *netstate.State, error) {
	state, err := netstate.New(prov, rc.Energy)
	if err != nil {
		return nil, nil, err
	}
	state.SetObs(rc.Obs)
	cearOpts := core.Options{
		Pricing:     rc.Pricing,
		PruneBudget: rc.PruneBudget,
	}
	var alg router.Algorithm
	switch rc.Algorithm {
	case AlgCEAR, AlgCEARNoEnergy, AlgCEARNoAdmission, AlgCEARLinear:
		cearOpts.Variant = cearVariants[rc.Algorithm]
		alg, err = core.New(state, cearOpts)
	case AlgCEARAdaptive:
		alg, err = adaptive.New(state, rc.Workload.ArrivalRatePerSlot, cearOpts)
	case AlgSSP:
		alg, err = baselines.NewSSP(state)
	case AlgECARS:
		alg, err = baselines.NewECARS(state)
	case AlgERU:
		alg, err = baselines.NewERU(state)
	case AlgERA:
		alg, err = baselines.NewERA(state)
	default:
		return nil, nil, fmt.Errorf("sim: unknown algorithm kind %d", rc.Algorithm)
	}
	if err != nil {
		return nil, nil, err
	}
	return alg, state, nil
}

// Run executes one complete simulation: generate the workload, process
// every request online, then sweep the final state for the per-slot
// metrics. It is RunContext with a background context.
func Run(prov *topology.Provider, rc RunConfig) (*Result, error) {
	return RunContext(context.Background(), prov, rc)
}

// RunContext is Run with cooperative cancellation: the admission loop
// checks ctx between requests and returns ctx's error as soon as it is
// cancelled, so a serving daemon (or Ctrl-C on `spacebench run`) can stop
// a run mid-stream without waiting for the horizon to play out.
//
// The whole admission path is the shared Engine — RunContext is nothing
// but "generate, Admit in a loop, Finish", so batch simulation and the
// online booking server cannot diverge.
func RunContext(ctx context.Context, prov *topology.Provider, rc RunConfig) (*Result, error) {
	reqs := rc.Requests
	if reqs == nil {
		wlSpan := rc.Obs.StartPhase("workload_generate")
		var err error
		reqs, err = workload.Generate(rc.Workload)
		wlSpan.End()
		if err != nil {
			return nil, err
		}
	}
	eng, err := NewEngine(prov, rc)
	if err != nil {
		return nil, err
	}
	for _, req := range reqs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: run cancelled at request %d: %w", req.ID, err)
		}
		if _, err := eng.Admit(req); err != nil {
			return nil, err
		}
	}
	return eng.Finish()
}
