package experiment

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"spacebooking/internal/grid"
	"spacebooking/internal/sim"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

var testEpoch = time.Date(2026, time.July, 5, 0, 0, 0, 0, time.UTC)

// sharedProvider is built once: provider construction dominates test time.
var (
	provOnce   sync.Once
	sharedProv *topology.Provider
	provErr    error
)

func testProvider(t *testing.T) *topology.Provider {
	t.Helper()
	provOnce.Do(func() {
		cfg := topology.DefaultConfig(testEpoch)
		cfg.Walker.Planes = 8
		cfg.Walker.SatsPerPlane = 12
		cfg.Walker.PhasingF = 3
		cfg.Horizon = 60
		sites := testSites()
		freeze := make([]topology.Endpoint, len(sites))
		for i := range sites {
			freeze[i] = topology.Endpoint{Kind: topology.EndpointGround, Index: i}
		}
		sharedProv, provErr = topology.NewProvider(cfg, sites, nil, freeze...)
	})
	if provErr != nil {
		t.Fatal(provErr)
	}
	return sharedProv
}

func testSites() []grid.Site {
	return []grid.Site{
		{ID: 0, LatDeg: 40.7, LonDeg: -74.0},  // New York
		{ID: 1, LatDeg: 34.1, LonDeg: -118.2}, // Los Angeles
		{ID: 2, LatDeg: 51.5, LonDeg: -0.1},   // London
		{ID: 3, LatDeg: 35.7, LonDeg: 139.7},  // Tokyo
	}
}

func testPairs() []workload.Pair {
	ep := func(i int) topology.Endpoint {
		return topology.Endpoint{Kind: topology.EndpointGround, Index: i}
	}
	return []workload.Pair{
		{Src: ep(0), Dst: ep(1)},
		{Src: ep(2), Dst: ep(3)},
		{Src: ep(0), Dst: ep(3)},
	}
}

// job is one test run: an algorithm at rate 1 on one seed.
type job struct {
	alg  sim.AlgorithmKind
	seed int64
}

// builder returns the NewRunConfig that runs jobs[i].
func builder(jobs []job) func(int) (sim.RunConfig, error) {
	return func(i int) (sim.RunConfig, error) {
		wl := workload.DefaultConfig(60, testPairs(), jobs[i].seed)
		wl.ArrivalRatePerSlot = 1
		return sim.DefaultRunConfig(jobs[i].alg, wl)
	}
}

// TestParallelMatchesSequential is the scheduler's core contract: the
// same matrix run with Parallelism 1 and Parallelism 8 yields identical
// per-cell results.
func TestParallelMatchesSequential(t *testing.T) {
	prov := testProvider(t)
	jobs := []job{{sim.AlgCEAR, 42}, {sim.AlgCEAR, 7}, {sim.AlgSSP, 42}, {sim.AlgSSP, 7}, {sim.AlgECARS, 42}, {sim.AlgECARS, 7}}

	seq, err := Run(prov, len(jobs), Config{Parallelism: 1, NewRunConfig: builder(jobs)})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(prov, len(jobs), Config{Parallelism: 8, NewRunConfig: builder(jobs)})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(jobs) || len(par) != len(jobs) {
		t.Fatalf("result lengths: seq=%d par=%d want %d", len(seq), len(par), len(jobs))
	}
	for i, j := range jobs {
		if seq[i].Res.Algorithm != j.alg.String() || par[i].Res.Algorithm != j.alg.String() {
			t.Fatalf("job %d: results out of job order (seq %s, par %s, want %s)", i, seq[i].Res.Algorithm, par[i].Res.Algorithm, j.alg)
		}
		if !reflect.DeepEqual(seq[i].Res, par[i].Res) {
			t.Errorf("job %d (%+v): parallel result differs from sequential", i, j)
		}
	}
}

// TestObserveGivesDistinctRegistries: with Observe set, every job gets
// its own registry and the run's counters land there.
func TestObserveGivesDistinctRegistries(t *testing.T) {
	prov := testProvider(t)
	jobs := []job{{sim.AlgCEAR, 42}, {sim.AlgSSP, 42}}
	results, err := Run(prov, len(jobs), Config{Parallelism: 2, Observe: true, NewRunConfig: builder(jobs)})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Obs == nil {
			t.Fatalf("job %d: Observe set but Obs nil", i)
		}
		snap := r.Obs.Snapshot()
		total, ok := snap.Counters["sim.requests.total"]
		if !ok || total != int64(r.Res.TotalRequests) {
			t.Errorf("job %d: registry total=%d (ok=%v) want %d", i, total, ok, r.Res.TotalRequests)
		}
	}
	for i := range results {
		for k := i + 1; k < len(results); k++ {
			if results[i].Obs == results[k].Obs {
				t.Fatalf("jobs %d and %d share a registry", i, k)
			}
		}
	}
}

func TestRunErrorPropagation(t *testing.T) {
	prov := testProvider(t)
	jobs := []job{{sim.AlgCEAR, 42}, {sim.AlgSSP, 42}}
	boom := errors.New("builder refused")
	results, err := Run(prov, len(jobs), Config{
		Parallelism: 2,
		NewRunConfig: func(i int) (sim.RunConfig, error) {
			if jobs[i].alg == sim.AlgSSP {
				return sim.RunConfig{}, boom
			}
			return builder(jobs)(i)
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	// The non-failing job still completed.
	if results[0].Err != nil || results[0].Res == nil {
		t.Fatalf("healthy job should have run: %+v", results[0])
	}
	if !errors.Is(results[1].Err, boom) {
		t.Fatalf("failing job Err = %v", results[1].Err)
	}
}

func TestRunValidation(t *testing.T) {
	prov := testProvider(t)
	if _, err := Run(nil, 0, Config{NewRunConfig: builder(nil)}); err == nil {
		t.Error("nil provider should error")
	}
	if _, err := Run(prov, 0, Config{}); err == nil {
		t.Error("nil NewRunConfig should error")
	}
	results, err := Run(prov, 0, Config{NewRunConfig: builder(nil)})
	if err != nil || len(results) != 0 {
		t.Errorf("empty job list: results=%v err=%v", results, err)
	}
}

func TestOnResultSerialised(t *testing.T) {
	prov := testProvider(t)
	jobs := []job{{sim.AlgCEAR, 42}, {sim.AlgSSP, 42}, {sim.AlgECARS, 42}, {sim.AlgERA, 42}}
	var (
		mu   sync.Mutex
		seen []*sim.Result
	)
	_, err := Run(prov, len(jobs), Config{
		Parallelism:  4,
		NewRunConfig: builder(jobs),
		OnResult: func(r Result) {
			// The scheduler already serialises OnResult; the mutex here
			// only guards against regressions (would trip -race).
			mu.Lock()
			seen = append(seen, r.Res)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("OnResult fired %d times, want %d", len(seen), len(jobs))
	}
}
