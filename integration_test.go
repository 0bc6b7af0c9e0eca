package spacebooking

// Integration tests: cross-module invariants that only surface when the
// whole stack (topology → energy → pricing → admission → metrics) runs
// together.

import (
	"math"
	"reflect"
	"testing"

	"spacebooking/internal/core"
	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
	"spacebooking/internal/offline"
	"spacebooking/internal/sim"
	"spacebooking/internal/workload"
)

// runFull drives one algorithm over a workload and returns both the
// result and the final state for invariant inspection.
func runFullWithState(t *testing.T, env *Environment, alg sim.AlgorithmKind, rate float64, seed int64) (*sim.Result, workload.Config) {
	t.Helper()
	wl := env.WorkloadConfig(rate, seed)
	rc, err := env.RunConfig(alg, wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := env.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	return res, wl
}

// TestLemma1StyleInvariants: after a full CEAR run, replaying the
// accepted plans must never over-subscribe a link or drive a battery
// negative. The sim enforces this internally (ReserveLink and strict
// batteries error out), so the integration assertion is that heavy runs
// complete without internal errors AND leave consistent metrics.
func TestLemma1StyleInvariants(t *testing.T) {
	env := smallEnv(t)
	for _, alg := range []sim.AlgorithmKind{sim.AlgCEAR, sim.AlgSSP, sim.AlgERU} {
		res, _ := runFullWithState(t, env, alg, 2*env.DefaultArrivalRate(), 17)
		if res.Accepted+sumValues(res.Rejections) != res.TotalRequests {
			t.Errorf("%s: request accounting broken", alg)
		}
		for slot, n := range res.DepletedPerSlot {
			if n < 0 || n > env.Provider.NumSats() {
				t.Fatalf("%s: depleted count %d at slot %d out of range", alg, n, slot)
			}
		}
	}
}

func sumValues(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

// TestPaperOrderingAtLoad asserts the paper's headline Fig. 6 ordering
// at 2x the default rate: CEAR >= each baseline, and ERU last.
func TestPaperOrderingAtLoad(t *testing.T) {
	env := smallEnv(t)
	rate := 2 * env.DefaultArrivalRate()
	welfare := map[sim.AlgorithmKind]float64{}
	for _, alg := range sim.PaperAlgorithms() {
		res, _ := runFullWithState(t, env, alg, rate, 31)
		welfare[alg] = res.WelfareRatio
	}
	for _, alg := range []sim.AlgorithmKind{sim.AlgSSP, sim.AlgECARS, sim.AlgERA} {
		if welfare[sim.AlgCEAR] < welfare[alg]-0.03 {
			t.Errorf("CEAR welfare %.3f below %s %.3f", welfare[sim.AlgCEAR], alg, welfare[alg])
		}
	}
	for _, alg := range []sim.AlgorithmKind{sim.AlgCEAR, sim.AlgSSP, sim.AlgECARS, sim.AlgERA} {
		if welfare[sim.AlgERU] > welfare[alg] {
			t.Errorf("ERU welfare %.3f not the worst (vs %s %.3f)", welfare[sim.AlgERU], alg, welfare[alg])
		}
	}
}

// TestCEARBeatsBaselinesOnEnergyHealth asserts the Fig. 7 ordering:
// CEAR keeps fewer satellites depleted than every baseline except
// (possibly) ERU, whose aggressive pruning under-uses the network.
func TestCEARBeatsBaselinesOnEnergyHealth(t *testing.T) {
	env := smallEnv(t)
	rate := 2 * env.DefaultArrivalRate()
	depleted := map[sim.AlgorithmKind]float64{}
	for _, alg := range sim.PaperAlgorithms() {
		res, _ := runFullWithState(t, env, alg, rate, 43)
		depleted[alg] = res.MeanDepleted()
	}
	for _, alg := range []sim.AlgorithmKind{sim.AlgSSP, sim.AlgECARS, sim.AlgERA} {
		if depleted[sim.AlgCEAR] > depleted[alg]+1 {
			t.Errorf("CEAR mean depleted %.2f worse than %s %.2f", depleted[sim.AlgCEAR], alg, depleted[alg])
		}
	}
}

// TestEmpiricalCompetitiveRatioWithinBound runs CEAR against the offline
// greedy on several workloads, including an adversarial one, and checks
// the empirical ratio stays far inside Theorem 1's bound.
func TestEmpiricalCompetitiveRatioWithinBound(t *testing.T) {
	env := smallEnv(t)
	for _, rate := range []float64{1, 3, 5} {
		res, err := env.RunCompetitive(rate, 7)
		if err != nil {
			t.Fatal(err)
		}
		if res.EmpiricalRatio > res.TheoreticalBound {
			t.Errorf("rate %v: empirical ratio %.2f exceeds bound %.2f", rate, res.EmpiricalRatio, res.TheoreticalBound)
		}
	}
}

// TestAdversarialSequence: a burst of huge, long requests followed by
// many small ones. A greedy algorithm fills up on the burst; CEAR's
// pricing must keep it within the competitive band of the offline greedy
// that knows the small requests are coming.
func TestAdversarialSequence(t *testing.T) {
	env := smallEnv(t)
	state, err := netstate.New(env.Provider, PaperEnergyConfig())
	if err != nil {
		t.Fatal(err)
	}
	params, err := PaperPricing()
	if err != nil {
		t.Fatal(err)
	}
	cear, err := core.New(state, core.Options{Pricing: params})
	if err != nil {
		t.Fatal(err)
	}

	pair := env.Pairs[0]
	var reqs []workload.Request
	id := 0
	// Burst: 20 maximal requests at slot 5.
	for i := 0; i < 20; i++ {
		reqs = append(reqs, workload.Request{
			ID: id, Src: pair.Src, Dst: pair.Dst,
			ArrivalSlot: 5, StartSlot: 5, EndSlot: 14,
			RateMbps: 2000, Valuation: env.DefaultValuation(),
		})
		id++
	}
	// Tail: 60 small requests spread over later slots.
	for i := 0; i < 60; i++ {
		slot := 20 + i%40
		reqs = append(reqs, workload.Request{
			ID: id, Src: pair.Src, Dst: pair.Dst,
			ArrivalSlot: slot, StartSlot: slot, EndSlot: slot + 1,
			RateMbps: 500, Valuation: env.DefaultValuation(),
		})
		id++
	}

	online := 0.0
	for _, r := range reqs {
		d, err := cear.Handle(r)
		if err != nil {
			t.Fatal(err)
		}
		if d.Accepted {
			online += r.Valuation
		}
	}
	off, err := offline.Greedy(env.Provider, PaperEnergyConfig(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if online <= 0 {
		t.Fatal("CEAR earned nothing on the adversarial sequence")
	}
	ratio := off.Welfare / online
	if ratio > params.CompetitiveRatio() {
		t.Errorf("adversarial ratio %.2f exceeds bound %.2f", ratio, params.CompetitiveRatio())
	}
	t.Logf("adversarial: online %.3g, offline %.3g, ratio %.2f (bound %.1f)",
		online, off.Welfare, ratio, params.CompetitiveRatio())
}

// TestEnergyConservation: total energy drawn from the system (solar used
// + battery deficits outstanding) must equal the energy implied by the
// accepted plans, for a single-request scenario where it can be computed
// exactly.
func TestEnergyConservation(t *testing.T) {
	env := smallEnv(t)
	state, err := netstate.New(env.Provider, PaperEnergyConfig())
	if err != nil {
		t.Fatal(err)
	}
	params, err := PaperPricing()
	if err != nil {
		t.Fatal(err)
	}
	cear, err := core.New(state, core.Options{Pricing: params})
	if err != nil {
		t.Fatal(err)
	}

	pair := env.Pairs[0]
	req := workload.Request{
		ID: 1, Src: pair.Src, Dst: pair.Dst,
		StartSlot: 10, EndSlot: 12, RateMbps: 1000,
		Valuation: env.DefaultValuation(),
	}
	d, err := cear.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted {
		t.Skipf("request rejected: %s", d.Reason)
	}

	// Expected total energy: per Eq. (1), each slot-path transits
	// satellites with role-dependent draw.
	cfg := PaperEnergyConfig()
	slotSec := env.Provider.Config().SlotSeconds
	expected := 0.0
	for _, sp := range d.Plan.Paths {
		for i := 1; i < len(sp.Path.Nodes)-1; i++ {
			expected += cfg.TransitEnergyJ(sp.Path.Edges[i-1].Class, sp.Path.Edges[i].Class, req.RateMbps, slotSec)
		}
	}

	// Observed: solar consumed plus outstanding deficits, summed over
	// all satellites. Solar consumed = initial input - remaining.
	observed := 0.0
	for sat := 0; sat < env.Provider.NumSats(); sat++ {
		b := state.Battery(sat)
		for slot := 0; slot < env.Provider.Horizon(); slot++ {
			initial := 0.0
			if env.Provider.Sunlit(slot, sat) {
				initial = cfg.PanelWatts * slotSec
			}
			observed += initial - b.SolarRemainingAt(slot)
		}
		// The deficit at the final slot is energy still owed to the
		// batteries; deficits absorbed earlier were covered by solar,
		// which the loop above already counted.
		observed += b.DeficitAt(env.Provider.Horizon() - 1)
	}
	if math.Abs(observed-expected) > 1e-6*(1+expected) {
		t.Errorf("energy books do not balance: observed %.3f J, expected %.3f J", observed, expected)
	}
}

// TestAdaptiveControllerEndToEnd: the §V-B adaptive variant completes a
// full run and lands within the clamp band.
func TestAdaptiveControllerEndToEnd(t *testing.T) {
	env := smallEnv(t)
	res, _ := runFullWithState(t, env, sim.AlgCEARAdaptive, 2*env.DefaultArrivalRate(), 3)
	if res.Algorithm != "CEAR-AD" {
		t.Errorf("algorithm = %q", res.Algorithm)
	}
	if res.Accepted == 0 {
		t.Error("adaptive CEAR accepted nothing")
	}
}

// TestEnvironmentLastObs: figure runners give every run its own
// registry; LastObs must return the final run's registry (matrix order),
// and its snapshot must describe that run alone — no accumulation of
// counters or per-slot time series across the figure's runs.
func TestEnvironmentLastObs(t *testing.T) {
	env := smallEnv(t)
	env.Obs = obs.New()
	var sunk []*obs.Registry
	env.ObsSink = func(r *obs.Registry) { sunk = append(sunk, r) }
	defer func() {
		env.Obs = nil
		env.ObsSink = nil
	}()

	if env.LastObs() != nil {
		t.Fatal("LastObs non-nil before any run")
	}
	if _, err := env.runSeries("fig8", []sim.AlgorithmKind{sim.AlgCEAR, sim.AlgSSP}, env.DefaultArrivalRate(), 7,
		func(r *sim.Result) []float64 { return r.CumulativeWelfareRatio }); err != nil {
		t.Fatal(err)
	}

	last := env.LastObs()
	if last == nil {
		t.Fatal("LastObs nil after an observed figure")
	}
	if last == env.Obs {
		t.Fatal("LastObs returned the shared environment registry; runs must get their own")
	}
	snap := last.Snapshot()
	if snap.Counters["sim.requests.total"] == 0 {
		t.Fatal("instrumented runs recorded nothing")
	}
	horizon := int64(env.Provider.Horizon())
	if got := snap.TimeSeries["slot.accepted"].Total; got != horizon {
		t.Errorf("slot.accepted has %d samples, want %d (another run bled in)", got, horizon)
	}
	if len(sunk) != 2 {
		t.Fatalf("ObsSink saw %d registries, want 2", len(sunk))
	}
	if sunk[0] == sunk[1] {
		t.Fatal("ObsSink received the same registry twice")
	}
	// LastObs is the last run in *matrix* order, whatever the
	// completion order was.
	if last != sunk[0] && last != sunk[1] {
		t.Fatal("LastObs is not one of the run registries")
	}
}

// TestParallelFiguresDeterministic: a figure swept with Parallelism 1
// and Parallelism 8 must produce identical per-cell values — each run
// owns its state and RNG, so scheduling order cannot leak into results.
func TestParallelFiguresDeterministic(t *testing.T) {
	env := smallEnv(t)
	s := env.fig6([]int64{7, 42})
	s.values = []float64{env.DefaultArrivalRate()}
	s.algs = []sim.AlgorithmKind{sim.AlgCEAR, sim.AlgSSP, sim.AlgECARS}
	env.Parallelism = 1
	seq, err := env.runSweeps(s)
	if err != nil {
		t.Fatal(err)
	}
	env.Parallelism = 8
	defer func() { env.Parallelism = 0 }()
	par, err := env.runSweeps(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, col := range seq.CSVs[0].Columns {
		if !reflect.DeepEqual(col, par.CSVs[0].Columns[i]) {
			t.Errorf("%s: sequential %v vs parallel %v", col.Name, col.Values, par.CSVs[0].Columns[i].Values)
		}
	}
}

// TestAdaptiveUnderDiurnalLoad exercises the §V-B controller where it is
// meant to shine: a strongly time-varying load. The assertion is soft
// (within a small margin of static CEAR) because adaptivity is a
// heuristic; the run itself exercises the full predictor/adjustment path.
func TestAdaptiveUnderDiurnalLoad(t *testing.T) {
	env := smallEnv(t)
	profile, err := workload.DiurnalProfile(48, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	run := func(alg sim.AlgorithmKind) float64 {
		wl := env.WorkloadConfig(2*env.DefaultArrivalRate(), 23)
		wl.RateProfile = profile
		rc, err := env.RunConfig(alg, wl)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		return res.WelfareRatio
	}
	static := run(sim.AlgCEAR)
	adaptiveW := run(sim.AlgCEARAdaptive)
	t.Logf("diurnal load: static CEAR %.3f, adaptive CEAR-AD %.3f", static, adaptiveW)
	if adaptiveW < static-0.08 {
		t.Errorf("adaptive welfare %.3f collapsed versus static %.3f", adaptiveW, static)
	}
}

// TestCutUpperBoundDeterministic: the certified bound is a function of
// (topology, workload) down to the last bit. Its per-pool knapsack values
// used to be summed in map order, which on the medium preset at seed 5
// returned two bit patterns 1 ulp apart across calls.
func TestCutUpperBoundDeterministic(t *testing.T) {
	env := mediumEnv(t)
	for seed := int64(1); seed <= 5; seed++ {
		reqs, err := workload.Generate(env.WorkloadConfig(2*env.DefaultArrivalRate(), seed))
		if err != nil {
			t.Fatal(err)
		}
		first, err := offline.CutUpperBound(env.Provider, reqs)
		if err != nil {
			t.Fatal(err)
		}
		for call := 1; call < 50; call++ {
			ub, err := offline.CutUpperBound(env.Provider, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(ub) != math.Float64bits(first) {
				t.Fatalf("seed %d call %d: bound %v (%#x), first call %v (%#x)",
					seed, call, ub, math.Float64bits(ub), first, math.Float64bits(first))
			}
		}
	}
}
