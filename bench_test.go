package spacebooking

// The benchmark harness regenerates every figure of the paper's
// evaluation section (§VI). Each BenchmarkFigN runs the corresponding
// experiment and prints the reproduced rows/series once. The default
// scale is "small" so `go test -bench=.` finishes in minutes; run the
// paper-scale experiments with
//
//	go test -bench=. -benchtime=1x -timeout=0 -spacebench.scale=full
//
// or via `go run ./cmd/spacebench -scale full <figure>`.

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"spacebooking/internal/metrics"
	"spacebooking/internal/netstate"
	"spacebooking/internal/sim"
	"spacebooking/internal/topology"
)

var benchScale = flag.String("spacebench.scale", "small",
	"experiment scale for the figure benchmarks: small, medium or full")

var (
	benchEnvOnce sync.Once
	benchEnv     *Environment
	benchEnvErr  error
)

func benchEnvironment(b *testing.B) *Environment {
	b.Helper()
	benchEnvOnce.Do(func() {
		scale, err := ParseScale(*benchScale)
		if err != nil {
			benchEnvErr = err
			return
		}
		benchEnv, benchEnvErr = NewEnvironment(EnvConfig{Scale: scale})
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// printOnce guards the one-time table output of each figure bench.
var printOnce sync.Map

func printFigure(b *testing.B, name string, tables ...*metrics.Table) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n==== %s ====\n", name)
		for _, t := range tables {
			if err := t.Render(os.Stdout); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchFigure runs a figure b.N times and prints its tables once.
func benchFigure(b *testing.B, name string, run func(*Environment) (*Figure, error)) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := run(env)
		if err != nil {
			b.Fatal(err)
		}
		printFigure(b, name, fig.Tables...)
	}
}

// BenchmarkFig6 regenerates Fig. 6: social welfare ratio per algorithm
// under the default setting and the arrival-rate sweep.
func BenchmarkFig6(b *testing.B) {
	benchFigure(b, "Fig. 6", func(env *Environment) (*Figure, error) { return env.RunFig6(DefaultSeeds) })
}

// BenchmarkFig7 regenerates Fig. 7: energy-depleted satellites over time
// at the default rate and congested links over time at 2.5x the default
// rate.
func BenchmarkFig7(b *testing.B) {
	benchFigure(b, "Fig. 7", func(env *Environment) (*Figure, error) { return env.RunFig7(DefaultSeeds[0]) })
}

// BenchmarkFig8 regenerates Fig. 8: cumulative social welfare ratio over
// time per algorithm.
func BenchmarkFig8(b *testing.B) {
	benchFigure(b, "Fig. 8", func(env *Environment) (*Figure, error) { return env.RunFig8(DefaultSeeds[0]) })
}

// BenchmarkFig9Valuation regenerates the left subplot of Fig. 9: CEAR's
// welfare ratio across request valuations.
func BenchmarkFig9Valuation(b *testing.B) {
	benchFigure(b, "Fig. 9 (left)", func(env *Environment) (*Figure, error) {
		return env.runSweeps(env.fig9(DefaultSeeds[:2])[0])
	})
}

// BenchmarkFig9F2 regenerates the right subplot of Fig. 9: CEAR's welfare
// ratio across the conservativeness parameter F2.
func BenchmarkFig9F2(b *testing.B) {
	benchFigure(b, "Fig. 9 (right)", func(env *Environment) (*Figure, error) {
		return env.runSweeps(env.fig9(DefaultSeeds[:2])[1])
	})
}

// BenchmarkAblations runs the CEAR design-choice ablations (exponential
// vs linear pricing, energy pricing, admission control).
func BenchmarkAblations(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := env.RunAblations(DefaultSeeds[0])
		if err != nil {
			b.Fatal(err)
		}
		printFigure(b, "Ablations", res.Table())
	}
}

// BenchmarkCompetitive compares CEAR's online welfare against the
// offline greedy estimate and Theorem 1's bound.
func BenchmarkCompetitive(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := env.RunCompetitive(0, DefaultSeeds[0])
		if err != nil {
			b.Fatal(err)
		}
		printFigure(b, "Competitive ratio", res.Table())
	}
}

// --- Micro-benchmarks on the hot paths -------------------------------

// benchCEARHandle drives full simulation runs with or without budget
// pruning; the per-iteration numbers are dominated by per-request Handle
// work once the provider is warm.
func benchCEARHandle(b *testing.B, prune bool) {
	b.Helper()
	env := benchEnvironment(b)
	rc, err := env.RunConfig(sim.AlgCEAR, env.WorkloadConfig(env.DefaultArrivalRate(), 1))
	if err != nil {
		b.Fatal(err)
	}
	rc.PruneBudget = prune
	// Mirror the experiment scheduler: one pooled scratch serves every run
	// on this goroutine.
	rc.Scratch = netstate.NewSearchScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Run(rc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCEARHandle measures the per-request cost of Algorithm 1 on a
// warm network, using the production configuration: the flat CSR fast
// path with a reused search scratch.
func BenchmarkCEARHandle(b *testing.B) { benchCEARHandle(b, false) }

// BenchmarkCEARHandlePruned adds budget pruning on top of the fast path:
// searches abandon plans that already exceed the request's valuation.
func BenchmarkCEARHandlePruned(b *testing.B) { benchCEARHandle(b, true) }

// BenchmarkProviderConstruction measures topology propagation (per-slot
// positions, eclipse flags, +Grid) at small scale.
func BenchmarkProviderConstruction(b *testing.B) {
	cfg := topology.DefaultConfig(DefaultEpoch)
	cfg.Walker.Planes = 8
	cfg.Walker.SatsPerPlane = 12
	cfg.Walker.PhasingF = 3
	cfg.Horizon = 96
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topology.NewProvider(cfg, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveDiurnal compares static CEAR with the §V-B adaptive
// controller under a diurnal load profile.
func BenchmarkAdaptiveDiurnal(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := env.RunAdaptiveComparison(DefaultSeeds[0])
		if err != nil {
			b.Fatal(err)
		}
		printFigure(b, "Adaptive (diurnal)", res.Table())
	}
}
