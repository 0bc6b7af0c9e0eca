package spacebooking

// Integration tests: cross-module invariants that only surface when the
// whole stack (topology → energy → pricing → admission → metrics) runs
// together.

import (
	"errors"
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
	rc, err := sim.DefaultRunConfig(alg, wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(env.Provider, rc)
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

// observedRuns runs CEAR and SSP through runJobs on two workers with an
// environment registry set, at arrival rates far enough apart that the
// runs offer different numbers of requests. It returns the results and
// the registries ObsSink received, in the order it received them; the
// sink appends unlocked, which -race would catch were it not serialised.
func observedRuns(t *testing.T, env *Environment) ([]*sim.Result, []*obs.Registry) {
	t.Helper()
	env.Obs = obs.New()
	env.Parallelism = 2
	var sunk []*obs.Registry
	env.ObsSink = func(r *obs.Registry) { sunk = append(sunk, r) }
	t.Cleanup(func() {
		env.Obs = nil
		env.Parallelism = 0
		env.ObsSink = nil
	})

	algs := []sim.AlgorithmKind{sim.AlgCEAR, sim.AlgSSP}
	results, err := env.runJobs(len(algs), func(i int) (sim.RunConfig, error) {
		return sim.DefaultRunConfig(algs[i], env.WorkloadConfig(float64(i+1)*env.DefaultArrivalRate(), 7))
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].TotalRequests == results[1].TotalRequests {
		t.Fatal("both runs offered the same number of requests; pick workloads that tell their registries apart")
	}
	if len(sunk) != len(algs) {
		t.Fatalf("ObsSink saw %d registries, want %d", len(sunk), len(algs))
	}
	return results, sunk
}

// TestObserveGivesDistinctRegistries: runJobs gives every observed run
// its own registry holding that run alone — its sim.requests.total is
// one run's TotalRequests and its per-slot series has one sample per
// slot, with no counters or samples of another run bled in.
func TestObserveGivesDistinctRegistries(t *testing.T) {
	env := smallEnv(t)
	results, sunk := observedRuns(t, env)
	if sunk[0] == sunk[1] || sunk[0] == env.Obs || sunk[1] == env.Obs {
		t.Fatal("runs must each get their own registry, not share one or the environment's")
	}
	totals := map[int64]bool{}
	horizon := int64(env.Provider.Horizon())
	for _, reg := range sunk {
		snap := reg.Snapshot()
		total, ok := snap.Counters["sim.requests.total"]
		if !ok || (total != int64(results[0].TotalRequests) && total != int64(results[1].TotalRequests)) {
			t.Errorf("a registry counts %d requests (ok=%v); the runs made %d and %d",
				total, ok, results[0].TotalRequests, results[1].TotalRequests)
		}
		totals[total] = true
		if got := snap.TimeSeries["slot.accepted"].Total; got != horizon {
			t.Errorf("slot.accepted has %d samples, want %d (another run bled in)", got, horizon)
		}
	}
	if len(totals) != len(sunk) {
		t.Error("two registries count the same run")
	}
}

// TestEnvironmentLastObs: ObsSink receives each run's registry once,
// serialised, and LastObs is the last run in job order, whatever order
// the runs completed in.
func TestEnvironmentLastObs(t *testing.T) {
	env := smallEnv(t)
	results, sunk := observedRuns(t, env)
	last := env.LastObs()
	if last != sunk[0] && last != sunk[1] {
		t.Fatal("LastObs is not one of the run registries")
	}
	if got := last.Snapshot().Counters["sim.requests.total"]; got != int64(results[1].TotalRequests) {
		t.Errorf("LastObs counts %d requests, want the last job's %d", got, results[1].TotalRequests)
	}
}

// TestRunJobsErrorPropagation: a failed job cancels no other; the error
// returned is the first failure in job order, and the healthy job still
// ran, was handed to ObsSink and is LastObs.
func TestRunJobsErrorPropagation(t *testing.T) {
	env := smallEnv(t)
	env.Obs = obs.New()
	env.Parallelism = 3
	var sunk []*obs.Registry
	env.ObsSink = func(r *obs.Registry) { sunk = append(sunk, r) }
	defer func() {
		env.Obs = nil
		env.Parallelism = 0
		env.ObsSink = nil
	}()

	first, second := errors.New("job 0 refused"), errors.New("job 1 refused")
	_, err := env.runJobs(3, func(i int) (sim.RunConfig, error) {
		switch i {
		case 0:
			return sim.RunConfig{}, first
		case 1:
			return sim.RunConfig{}, second
		}
		return sim.DefaultRunConfig(sim.AlgCEAR, env.WorkloadConfig(env.DefaultArrivalRate(), 7))
	})
	if !errors.Is(err, first) || errors.Is(err, second) {
		t.Fatalf("err = %v, want job 0's error alone", err)
	}
	if len(sunk) != 1 || env.LastObs() != sunk[0] {
		t.Fatalf("the healthy job's registry reached ObsSink %d times (LastObs %p)", len(sunk), env.LastObs())
	}
	if sunk[0].Snapshot().Counters["sim.requests.total"] == 0 {
		t.Fatal("the healthy job recorded no requests")
	}
}

// TestRunJobsSearchEachRunOnItsOwnScratch: every run's state sizes one
// search scratch of its own, so a worker's later jobs start as cold as
// its first. Each view build after a run's first reuses the scratch, and
// each builds one flat search: netstate.scratch.reuses trails
// graph.fastpath.searches by exactly one in every run's registry.
func TestRunJobsSearchEachRunOnItsOwnScratch(t *testing.T) {
	env := smallEnv(t)
	env.Obs = obs.New()
	env.Parallelism = 1
	var sunk []*obs.Registry
	env.ObsSink = func(r *obs.Registry) { sunk = append(sunk, r) }
	defer func() {
		env.Obs = nil
		env.Parallelism = 0
		env.ObsSink = nil
	}()

	algs := []sim.AlgorithmKind{sim.AlgCEAR, sim.AlgSSP, sim.AlgCEARLinear}
	if _, err := env.runJobs(len(algs), func(i int) (sim.RunConfig, error) {
		return sim.DefaultRunConfig(algs[i], env.WorkloadConfig(env.DefaultArrivalRate(), 3))
	}); err != nil {
		t.Fatal(err)
	}
	if len(sunk) != len(algs) {
		t.Fatalf("ObsSink saw %d registries, want %d", len(sunk), len(algs))
	}
	for i, reg := range sunk {
		reuses := reg.Counter("netstate.scratch.reuses").Value()
		searches := reg.Counter("graph.fastpath.searches").Value()
		if searches == 0 || reuses != searches-1 {
			t.Errorf("job %d (%v): %d scratch reuses over %d flat searches, want one fewer", i, algs[i], reuses, searches)
		}
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
