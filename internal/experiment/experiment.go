// Package experiment schedules matrices of simulation runs over a
// shared, read-only topology Provider.
//
// The scheduler exists because one paper figure is never one run: Fig. 6
// alone is |algorithms| x |rates| x |seeds| independent simulations. Each
// run owns its State, its workload RNG and (optionally) its own obs
// registry, so the jobs are embarrassingly parallel once the Provider's
// visibility tables are frozen (topology.NewProvider). The scheduler
// fans jobs across a bounded worker pool and hands back results in
// matrix order, so callers see exactly the output a sequential triple
// loop would have produced.
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

// Job identifies one cell of an experiment matrix.
type Job struct {
	Algorithm sim.AlgorithmKind
	// Rate is the offered load in requests per slot (0 when the sweep
	// dimension is something other than arrival rate).
	Rate float64
	Seed int64
	// Key optionally tags the job for callers that sweep a non-rate
	// dimension (e.g. "energy"/"congestion" in Fig. 7, or a valuation
	// distribution name in Fig. 9).
	Key string
}

// String renders the job for progress logs.
func (j Job) String() string {
	s := j.Algorithm.String()
	if j.Key != "" {
		s += "/" + j.Key
	}
	if j.Rate > 0 {
		s += fmt.Sprintf(" rate=%g", j.Rate)
	}
	return fmt.Sprintf("%s seed=%d", s, j.Seed)
}

// Matrix is the common algorithm x rate x seed cross product.
type Matrix struct {
	Algorithms []sim.AlgorithmKind
	Rates      []float64
	Seeds      []int64
}

// Jobs expands the matrix in stable algorithm-major order: for each
// algorithm, each rate, each seed. This is the iteration order of the
// sequential triple loops the scheduler replaces, so result slices line
// up position-for-position with the old code paths.
func (m Matrix) Jobs() []Job {
	out := make([]Job, 0, len(m.Algorithms)*len(m.Rates)*len(m.Seeds))
	for _, alg := range m.Algorithms {
		for _, rate := range m.Rates {
			for _, seed := range m.Seeds {
				out = append(out, Job{Algorithm: alg, Rate: rate, Seed: seed})
			}
		}
	}
	return out
}

// Result is the outcome of one job.
type Result struct {
	// Index is the job's position in the input slice; Run returns
	// results sorted by it.
	Index int
	Job   Job
	Res   *sim.Result
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
	NewRunConfig func(i int, j Job) (sim.RunConfig, error)
	// OnResult, when non-nil, is invoked once per completed job, in
	// completion order, from at most one goroutine at a time. Use it
	// for progress logging or streaming sinks.
	OnResult func(Result)
}

// Run executes every job on the shared provider and returns the results
// in input (matrix) order. Individual job failures do not cancel the
// remaining jobs; the returned error is the first failure in matrix
// order, and every Result carries its own Err.
func Run(prov *topology.Provider, jobs []Job, cfg Config) ([]Result, error) {
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
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
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
				results[i] = runOne(prov, i, jobs[i], cfg)
				if cfg.OnResult != nil {
					resultMu.Lock()
					cfg.OnResult(results[i])
					resultMu.Unlock()
				}
			}
		}()
	}
	for i := range jobs {
		jobCh <- i
	}
	close(jobCh)
	wg.Wait()

	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("experiment: job %d (%s): %w", i, jobs[i], results[i].Err)
		}
	}
	return results, nil
}

func runOne(prov *topology.Provider, i int, j Job, cfg Config) Result {
	rc, err := cfg.NewRunConfig(i, j)
	if err != nil {
		return Result{Index: i, Job: j, Err: err}
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
	return Result{Index: i, Job: j, Res: res, Obs: rc.Obs, Err: err}
}
