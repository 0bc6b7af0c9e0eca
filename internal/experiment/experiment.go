// Package experiment schedules matrices of simulation runs over a
// shared, read-only topology Provider.
//
// The scheduler exists because one paper figure is never one run: Fig. 6
// alone is |algorithms| x |rates| x |seeds| independent simulations. Each
// run owns its State, its workload RNG and (optionally) its own obs
// registry, so the jobs are embarrassingly parallel once the Provider's
// visibility tables are frozen (topology.NewProvider). The scheduler
// fans jobs across a bounded worker pool and hands back results in job
// order, so callers see exactly the output a sequential loop would have
// produced.
package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
	"spacebooking/internal/sim"
	"spacebooking/internal/topology"
)

// scratchPool recycles routing search scratches across jobs. This is the
// only sync.Pool boundary of the fast path: within a run the scratch is
// single-owner (plain fields, no synchronisation); here, where worker
// goroutines start and finish runs, pooling lets a worker's next job
// inherit warm arrays instead of re-growing them from zero.
var scratchPool = sync.Pool{
	New: func() any { return netstate.NewSearchScratch() },
}

// Result is the outcome of one job.
type Result struct {
	Res *sim.Result
	// Obs is the registry the run collected into (nil unless the job
	// was observed).
	Obs *obs.Registry
	Err error
}

// Config parameterises a scheduler invocation.
type Config struct {
	// Parallelism bounds concurrent runs; <= 0 means GOMAXPROCS.
	Parallelism int
	// Observe gives each job whose RunConfig has a nil Obs its own
	// fresh registry, so parallel runs never share counters.
	Observe bool
	// NewRunConfig builds the RunConfig for job i. It is called from
	// worker goroutines and must not mutate shared state.
	NewRunConfig func(i int) (sim.RunConfig, error)
	// OnResult, when non-nil, is invoked once per completed job, in
	// completion order, from at most one goroutine at a time. Use it
	// for progress logging or streaming sinks.
	OnResult func(Result)
}

// Run executes jobs 0..n-1 on the shared provider and returns their
// results in job order. Individual job failures do not cancel the
// remaining jobs; the returned error is the first failure in job order,
// and every Result carries its own Err.
func Run(prov *topology.Provider, n int, cfg Config) ([]Result, error) {
	if prov == nil {
		return nil, fmt.Errorf("experiment: nil provider")
	}
	if cfg.NewRunConfig == nil {
		return nil, fmt.Errorf("experiment: nil NewRunConfig")
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]Result, n)
	if n == 0 {
		return results, nil
	}

	var (
		wg       sync.WaitGroup
		resultMu sync.Mutex // serialises OnResult
	)
	jobCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobCh {
				results[i] = runOne(prov, i, cfg)
				if cfg.OnResult != nil {
					resultMu.Lock()
					cfg.OnResult(results[i])
					resultMu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobCh <- i
	}
	close(jobCh)
	wg.Wait()

	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("experiment: job %d: %w", i, results[i].Err)
		}
	}
	return results, nil
}

func runOne(prov *topology.Provider, i int, cfg Config) Result {
	rc, err := cfg.NewRunConfig(i)
	if err != nil {
		return Result{Err: err}
	}
	if cfg.Observe && rc.Obs == nil {
		rc.Obs = obs.New()
	}
	if rc.Scratch == nil {
		sc := scratchPool.Get().(*netstate.SearchScratch)
		rc.Scratch = sc
		defer scratchPool.Put(sc)
	}
	res, err := sim.Run(prov, rc)
	return Result{Res: res, Obs: rc.Obs, Err: err}
}
