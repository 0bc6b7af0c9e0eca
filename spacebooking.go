// Package spacebooking is the public entry point of the Space Booking /
// CEAR reproduction: a complete Go implementation of the paper
// "Space Booking: Enabling Performance-Critical Applications in Broadband
// Satellite Networks" (ICDCS 2025).
//
// The package wires the simulation substrates (orbital mechanics, dynamic
// topology, energy ledgers, workload generation) into ready-to-run
// experiment environments, and exposes one runner per figure of the
// paper's evaluation section. Typical use:
//
//	env, err := spacebooking.NewEnvironment(spacebooking.EnvConfig{Scale: spacebooking.ScaleSmall})
//	...
//	fig6, err := env.RunFig6(spacebooking.DefaultSeeds)
//	fig6.Tables[0].Render(os.Stdout)
package spacebooking

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"spacebooking/internal/experiment"
	"spacebooking/internal/grid"
	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
	"spacebooking/internal/orbit"
	"spacebooking/internal/pricing"
	"spacebooking/internal/scenario"
	"spacebooking/internal/sim"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// Scale selects the size of the simulated system. The paper's evaluation
// runs at ScaleFull; the smaller presets preserve the experiment shape at
// a fraction of the cost and are the default for `go test -bench`.
type Scale int

const (
	// ScaleSmall is an 8×12 shell (96 satellites) over 96 minutes.
	ScaleSmall Scale = iota + 1
	// ScaleMedium is a 12×24 shell (288 satellites) over 192 minutes.
	ScaleMedium
	// ScaleFull is Starlink Shell I (22×72 = 1584 satellites) over
	// 384 minutes with 1761 GDP-filtered ground sites and a 223-satellite
	// EO fleet — the paper's §VI-A setting.
	ScaleFull
)

// String returns the scale's name.
func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Horizon returns the number of slots the scale simulates, read from its
// preset without building anything; 0 for an invalid scale.
func (s Scale) Horizon() int {
	d, err := scalePreset(s)
	if err != nil {
		return 0
	}
	return d.topo.Horizon
}

// ParseScale converts a name ("small", "medium", "full") into a Scale.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "full":
		return ScaleFull, nil
	default:
		return 0, fmt.Errorf("spacebooking: unknown scale %q (want small, medium or full)", name)
	}
}

// EnvConfig configures an experiment environment.
type EnvConfig struct {
	// Scale selects the constellation/site preset. Required.
	Scale Scale
	// NumPairs is the number of source-destination pairs (paper: 10).
	// Zero picks the scale default.
	NumPairs int
	// PairSeed drives the random pair selection.
	PairSeed int64
	// IncludeEOFleet adds the 223-satellite synthetic EO fleet (always
	// on at ScaleFull; optional below to keep small runs fast).
	IncludeEOFleet bool
}

// Environment is a reusable experiment setup: the expensive topology
// propagation is done once and shared by every run and figure.
type Environment struct {
	Provider *topology.Provider
	Sites    []grid.Site
	EOFleet  []orbit.Satellite
	Pairs    []workload.Pair

	arrivalRate float64
	valuation   float64
	// Logf, when non-nil, receives progress lines from the long runners.
	Logf func(format string, args ...interface{})
	// Obs enables observability. When non-nil, every run launched
	// through a figure runner gets its *own* fresh registry (so parallel
	// runs never share counters); a single Run with a nil RunConfig.Obs
	// inherits this registry directly. Use LastObs to retrieve the
	// registry of the most recent run in matrix order.
	Obs *obs.Registry
	// Parallelism bounds how many simulation runs the figure runners
	// execute concurrently; <= 0 means GOMAXPROCS. Per-cell results are
	// identical to a sequential sweep — each run owns its State, RNG and
	// registry, and the shared Provider's visibility tables are frozen
	// for the request pairs at construction time.
	Parallelism int
	// ObsSink, when non-nil, receives each completed run's registry (in
	// completion order, serialised). spacebench uses it to repoint the
	// live debug server at the freshest run.
	ObsSink func(*obs.Registry)

	lastObsMu sync.Mutex
	lastObs   *obs.Registry
}

// DefaultEpoch is the fixed simulation start of every environment, so
// runs are reproducible.
var DefaultEpoch = time.Date(2026, time.March, 20, 12, 0, 0, 0, time.UTC)

// PaperLiteralValuation is the paper's §VI-A valuation constant, in the
// paper's (unspecified) cost units. In this implementation's cost units
// it sits near the 95th percentile of the full-scale plan-price
// distribution, where admission control barely binds; the scale presets
// therefore default to a calibrated operating point instead (see
// EXPERIMENTS.md, Fig. 6 section).
const PaperLiteralValuation = 2.3e9

// scalePreset holds the per-scale defaults.
type scaleDefaults struct {
	topo      topology.Config
	sites     int
	pairs     int
	rate      float64
	valuation float64
}

// scalePreset returns the topology config and workload defaults of a
// scale. The default valuation is the admission operating point: at
// ScaleFull it is the paper's 2.3e9; the reduced scales use values
// calibrated (see EXPERIMENTS.md) so that CEAR's plan-price distribution
// crosses the valuation at the same relative point it does in the
// paper's Fig. 9 — without that calibration the admission control never
// binds and CEAR degenerates to pricing-only routing.
func scalePreset(s Scale) (scaleDefaults, error) {
	cfg := topology.DefaultConfig(DefaultEpoch)
	switch s {
	case ScaleSmall:
		cfg.Walker.Planes = 8
		cfg.Walker.SatsPerPlane = 12
		cfg.Walker.PhasingF = 3
		cfg.Horizon = 96
		// A 96-satellite shell cannot sustain the paper's 25° elevation
		// mask; 10° restores near-continuous coverage so that resource
		// contention — not visibility gaps — differentiates algorithms.
		cfg.MinElevationDeg = 10
		return scaleDefaults{topo: cfg, sites: 60, pairs: 4, rate: 2, valuation: 1e8}, nil
	case ScaleMedium:
		cfg.Walker.Planes = 12
		cfg.Walker.SatsPerPlane = 24
		cfg.Walker.PhasingF = 5
		cfg.Horizon = 192
		cfg.MinElevationDeg = 15
		return scaleDefaults{topo: cfg, sites: 200, pairs: 6, rate: 4, valuation: 1e8}, nil
	case ScaleFull:
		// Starlink Shell I with the paper's horizon and constants. The
		// default valuation is the calibrated operating point (the
		// paper's ρ=2.3e9 *in its own cost units* corresponds to ~3e8 in
		// ours by price-distribution matching — see EXPERIMENTS.md; use
		// PaperLiteralValuation to reproduce the literal constant).
		return scaleDefaults{topo: cfg, sites: 1761, pairs: 10, rate: 10, valuation: 3e8}, nil
	default:
		return scaleDefaults{}, fmt.Errorf("spacebooking: invalid scale %d", int(s))
	}
}

// NewEnvironment builds the environment: constellation propagation,
// ground-site selection (GDP-filtered triangular tiling), optional EO
// fleet, and request pair selection.
func NewEnvironment(cfg EnvConfig) (*Environment, error) {
	defaults, err := scalePreset(cfg.Scale)
	if err != nil {
		return nil, err
	}
	topoCfg := defaults.topo

	subdivisions := 4
	if cfg.Scale == ScaleFull {
		subdivisions = 5
	}
	allSites, err := grid.TriangularSites(subdivisions)
	if err != nil {
		return nil, err
	}
	sites, err := grid.FilterByGDP(allSites, defaults.sites)
	if err != nil {
		return nil, err
	}

	var eo []orbit.Satellite
	if cfg.IncludeEOFleet || cfg.Scale == ScaleFull {
		eo, err = orbit.SyntheticEOFleet(orbit.DefaultEOFleetConfig(DefaultEpoch))
		if err != nil {
			return nil, err
		}
	}

	numPairs := cfg.NumPairs
	if numPairs == 0 {
		numPairs = defaults.pairs
	}
	pairs, err := selectCoveredPairs(topoCfg.Walker.InclinationDeg, sites, numPairs, cfg.PairSeed)
	if err != nil {
		return nil, err
	}

	// Freeze the visibility tables of every request endpoint, in the
	// provider's one pass over the slots: the hot path (BuildView, twice
	// per request per slot) then reads precomputed slices with no
	// locking, which is what makes parallel runs over the shared provider
	// scale. Non-pair endpoints keep the lazy memoised path — freezing all
	// 1761 sites at ScaleFull would cost far more than any figure ever
	// queries.
	eps := make([]topology.Endpoint, 0, 2*len(pairs))
	for _, p := range pairs {
		eps = append(eps, p.Src, p.Dst)
	}
	prov, err := topology.NewProvider(topoCfg, sites, eo, eps...)
	if err != nil {
		return nil, err
	}

	return &Environment{
		Provider:    prov,
		Sites:       sites,
		EOFleet:     eo,
		Pairs:       pairs,
		arrivalRate: defaults.rate,
		valuation:   defaults.valuation,
	}, nil
}

// DefaultArrivalRate returns the environment's default requests/minute.
func (e *Environment) DefaultArrivalRate() float64 { return e.arrivalRate }

// DefaultValuation returns the environment's default request valuation —
// the admission operating point (2.3e9 at ScaleFull, per the paper).
func (e *Environment) DefaultValuation() float64 { return e.valuation }

// logf forwards to Logf when set.
func (e *Environment) logf(format string, args ...interface{}) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}

// selectCoveredPairs picks distinct ground pairs among sites that a shell
// of the given inclination actually covers (|lat| within the inclination
// minus a margin), so that requests are not dead on arrival for every
// algorithm.
func selectCoveredPairs(inclinationDeg float64, sites []grid.Site, count int, seed int64) ([]workload.Pair, error) {
	maxLat := inclinationDeg - 1
	var covered []int
	for i, s := range sites {
		if math.Abs(s.LatDeg) <= maxLat {
			covered = append(covered, i)
		}
	}
	if len(covered) < 2 {
		return nil, fmt.Errorf("spacebooking: only %d sites covered by the shell", len(covered))
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int]bool, count)
	pairs := make([]workload.Pair, 0, count)
	for attempts := 0; len(pairs) < count; attempts++ {
		if attempts > 1000*count {
			return nil, fmt.Errorf("spacebooking: could not find %d distinct covered pairs", count)
		}
		a := covered[rng.Intn(len(covered))]
		b := covered[rng.Intn(len(covered))]
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		pairs = append(pairs, workload.Pair{
			Src: topology.Endpoint{Kind: topology.EndpointGround, Index: a},
			Dst: topology.Endpoint{Kind: topology.EndpointGround, Index: b},
		})
	}
	return pairs, nil
}

// WorkloadConfig builds the paper's workload over this environment's
// pairs with the given arrival rate and seed.
func (e *Environment) WorkloadConfig(ratePerMin float64, seed int64) workload.Config {
	cfg := workload.DefaultConfig(e.Provider.Horizon(), e.Pairs, seed)
	cfg.ArrivalRatePerSlot = ratePerMin
	cfg.Valuation = e.valuation
	return cfg
}

// RunConfig assembles a sim.RunConfig with the paper's defaults for the
// given algorithm and workload.
func (e *Environment) RunConfig(alg sim.AlgorithmKind, wl workload.Config) (sim.RunConfig, error) {
	return sim.DefaultRunConfig(alg, wl)
}

// Run executes a single simulation run. When the environment carries an
// observability registry and the config does not, the run inherits it.
func (e *Environment) Run(rc sim.RunConfig) (*sim.Result, error) {
	return e.RunContext(context.Background(), rc)
}

// RunContext is Run with cooperative cancellation: the admission loop
// stops between requests as soon as ctx is cancelled (see
// sim.RunContext).
func (e *Environment) RunContext(ctx context.Context, rc sim.RunConfig) (*sim.Result, error) {
	if rc.Obs == nil {
		rc.Obs = e.Obs
	}
	res, err := sim.RunContext(ctx, e.Provider, rc)
	if err == nil && rc.Obs != nil {
		e.setLastObs(rc.Obs)
	}
	return res, err
}

// LastObs returns the registry of the most recent successful run — for
// matrix runners, the last observed run in matrix order. Nil until an
// observed run completes.
func (e *Environment) LastObs() *obs.Registry {
	e.lastObsMu.Lock()
	defer e.lastObsMu.Unlock()
	return e.lastObs
}

func (e *Environment) setLastObs(reg *obs.Registry) {
	e.lastObsMu.Lock()
	e.lastObs = reg
	e.lastObsMu.Unlock()
}

// runJobs runs jobs 0..n-1, built by build, on the experiment scheduler
// with the environment's parallelism and observability settings, and
// returns their results in job order. Each observed job gets its own
// registry.
func (e *Environment) runJobs(n int, build func(i int) (sim.RunConfig, error)) ([]*sim.Result, error) {
	results, err := experiment.Run(e.Provider, n, experiment.Config{
		Parallelism:  e.Parallelism,
		Observe:      e.Obs != nil,
		NewRunConfig: build,
		OnResult: func(r experiment.Result) {
			if r.Err == nil && r.Obs != nil && e.ObsSink != nil {
				e.ObsSink(r.Obs)
			}
		},
	})
	for i := len(results) - 1; i >= 0; i-- {
		if results[i].Err == nil && results[i].Obs != nil {
			e.setLastObs(results[i].Obs)
			break
		}
	}
	if err != nil {
		return nil, err
	}
	res := make([]*sim.Result, n)
	for i, r := range results {
		res[i] = r.Res
	}
	return res, nil
}

// ScenarioBinding grounds scenario specs in this environment: its
// horizon, its request pairs, the GDP-filtered site table (for
// solar-phased diurnals and regional outages), and its calibrated
// valuation as the per-class default.
func (e *Environment) ScenarioBinding() scenario.Binding {
	return scenario.Binding{
		Horizon:          e.Provider.Horizon(),
		Pairs:            e.Pairs,
		Sites:            e.Sites,
		DefaultValuation: e.valuation,
	}
}

// PaperPricing returns the paper's pricing parameters (n=20, 𝕋=10,
// F1=F2=1 ⇒ μ1=μ2=402).
func PaperPricing() (pricing.Params, error) {
	return pricing.Derive(1, 1, 20, 10)
}

// PaperEnergyConfig returns the paper's power-model constants.
func PaperEnergyConfig() netstate.EnergyConfig {
	return netstate.DefaultEnergyConfig()
}
