package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spacebooking"
	"spacebooking/internal/metrics"
	"spacebooking/internal/obs"
	"spacebooking/internal/scenario"
	"spacebooking/internal/sim"
)

// figures maps each figure subcommand to its runner; allFigures is what
// "all" runs, in order.
var (
	figures = map[string]func(*spacebooking.Environment, runOpts) error{
		"fig6":        runFig6,
		"fig7":        runFig7,
		"fig8":        runFig8,
		"fig9":        runFig9,
		"ablate":      runAblate,
		"adaptive":    runAdaptive,
		"competitive": runCompetitive,
		"scenario":    runScenario,
	}
	allFigures = []string{"fig6", "fig7", "fig8", "fig9", "ablate", "adaptive", "competitive"}
)

const figureSynopsis = "[flags] fig6|fig7|fig8|fig9|ablate|adaptive|competitive|scenario|all\n" +
	"       spacebench run [flags]   (spacebench run -h lists its flags)"

// runFigure is the figure form: spacebench [flags] FIGURE.
func runFigure(args []string, stdout, stderr io.Writer) int {
	var o shared
	fs := o.newFlagSet("spacebench", figureSynopsis, "medium", stderr)
	parallel := fs.Int("parallel", 0, "max concurrent simulation runs per figure (0 = GOMAXPROCS)")
	numSeeds := fs.Int("seeds", len(spacebooking.DefaultSeeds), "number of seeds for the Fig. 6 error bars (1-5)")
	csvDir := fs.String("csv", "", "directory for per-figure CSV exports (optional)")
	quiet := fs.Bool("quiet", false, "suppress progress logging")
	if code, ok := o.parse(fs, args, stdout); !ok {
		return code
	}
	figure := fs.Arg(0)
	if _, ok := figures[figure]; fs.NArg() != 1 || !(ok || figure == "all") {
		fs.Usage()
		return 2
	}
	name := "spacebench " + figure
	if figure == "scenario" && o.spec == "" {
		return fail(stderr, name, 2, errors.New("the scenario figure needs -spec FILE"))
	}
	failed := func(err error) int { return fail(stderr, name, 1, err) }
	scale, err := spacebooking.ParseScale(o.scale)
	if err != nil {
		return failed(err)
	}
	*numSeeds = min(max(*numSeeds, 1), len(spacebooking.DefaultSeeds))
	opts := runOpts{out: stdout, seed: o.seed, seeds: spacebooking.DefaultSeeds[:*numSeeds], csvDir: *csvDir}
	if figure == "scenario" {
		if opts.spec, err = scenario.Load(o.spec); err != nil {
			return failed(err)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return failed(err)
		}
	}

	reg, srv, err := o.instrument(stdout)
	if err != nil {
		return failed(err)
	}
	if srv != nil {
		defer srv.Close()
	}

	start := time.Now()
	fmt.Fprintf(stdout, "building %s-scale environment...\n", scale)
	env, err := spacebooking.NewEnvironment(spacebooking.EnvConfig{Scale: scale})
	if err != nil {
		return failed(err)
	}
	env.Obs = reg
	env.Parallelism = *parallel
	if srv != nil {
		// Each run gets its own registry; keep the live debug endpoints
		// pointed at the most recently completed run.
		env.ObsSink = srv.SetRegistry
	}
	if !*quiet {
		env.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(stdout, "  "+format+"\n", args...)
		}
	}
	fmt.Fprintf(stdout, "environment ready in %v: %d satellites, %d sites, %d EO, %d pairs, horizon %d min\n\n",
		time.Since(start).Round(time.Millisecond),
		env.Provider.NumSats(), len(env.Sites), len(env.EOFleet), len(env.Pairs), env.Provider.Horizon())

	if figure == "all" {
		for _, fig := range allFigures {
			if err := figures[fig](env, opts); err != nil {
				return failed(fmt.Errorf("%s: %w", fig, err))
			}
		}
		fmt.Fprintf(stdout, "\nall figures reproduced in %v\n", time.Since(start).Round(time.Second))
	} else if err := figures[figure](env, opts); err != nil {
		return failed(err)
	}
	if o.report != "" {
		rep := figureReport(figure, scale, opts, time.Since(start), *parallel, env, reg)
		if err := obs.WriteReportFile(o.report, rep); err != nil {
			return failed(err)
		}
		fmt.Fprintf(stdout, "report written to %s\n", o.report)
	}
	return 0
}

// figureReport assembles the machine-readable run report: the effective
// configuration, wall time, and the instrumentation snapshot of the
// figure's last run (in matrix order).
func figureReport(figure string, scale spacebooking.Scale, opts runOpts, elapsed time.Duration, parallel int, env *spacebooking.Environment, reg *obs.Registry) *obs.Report {
	rep := obs.NewReport("spacebench")
	rep.SetConfig("figure", figure)
	rep.SetConfig("scale", scale.String())
	rep.SetConfig("seed", opts.seed)
	rep.SetConfig("num_seeds", len(opts.seeds))
	rep.SetConfig("parallel", parallel)
	// Every run collects into its own registry; the snapshot below is
	// the figure's last run in matrix order, matching the retired
	// reset-per-run behaviour.
	rep.SetConfig("obs_scope", "last_run")
	rep.SetMetric("elapsed_seconds", elapsed.Seconds())
	if last := env.LastObs(); last != nil {
		reg = last
	}
	rep.Finish(reg)
	return rep
}

// runOpts carries the output stream, seed, spec and export settings to
// the figure runners.
type runOpts struct {
	out    io.Writer
	seed   int64
	seeds  []int64
	csvDir string
	spec   scenario.Spec
}

// writeCSV writes one export file when -csv is set.
func (o runOpts) writeCSV(name string, headers []string, rows [][]float64) error {
	if o.csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(o.csvDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return metrics.WriteCSV(f, headers, rows)
}

// render prints a blank line and then each table.
func (o runOpts) render(tables ...*metrics.Table) error {
	for _, t := range tables {
		fmt.Fprintln(o.out)
		if err := t.Render(o.out); err != nil {
			return err
		}
	}
	return nil
}

func runFig6(env *spacebooking.Environment, opts runOpts) error {
	res, err := env.RunFig6(spacebooking.Fig6Config{Seeds: opts.seeds})
	if err != nil {
		return err
	}
	if err := opts.render(res.Table()); err != nil {
		return err
	}
	algs := []string{"CEAR", "SSP", "ECARS", "ERU", "ERA"}
	headers := []string{"rate"}
	for _, a := range algs {
		headers = append(headers, a+"_mean", a+"_std")
	}
	rows := make([][]float64, len(res.Rates))
	for i, rate := range res.Rates {
		row := []float64{rate}
		for _, a := range algs {
			p := res.Points[a][i]
			row = append(row, p.Mean, p.Std)
		}
		rows[i] = row
	}
	return opts.writeCSV("fig6.csv", headers, rows)
}

func runFig7(env *spacebooking.Environment, opts runOpts) error {
	res, err := env.RunFig7(spacebooking.Fig7Config{Seed: opts.seed})
	if err != nil {
		return err
	}
	dep, cong := res.Tables()
	if err := opts.render(dep, cong); err != nil {
		return err
	}
	algs := []string{"CEAR", "SSP", "ECARS", "ERU", "ERA"}
	headers := append([]string{"slot"}, algs...)
	buildRows := func(series map[string][]int) [][]float64 {
		rows := make([][]float64, res.Horizon)
		for t := 0; t < res.Horizon; t++ {
			row := []float64{float64(t)}
			for _, a := range algs {
				row = append(row, float64(series[a][t]))
			}
			rows[t] = row
		}
		return rows
	}
	if err := opts.writeCSV("fig7_depleted.csv", headers, buildRows(res.DepletedSeries)); err != nil {
		return err
	}
	return opts.writeCSV("fig7_congested.csv", headers, buildRows(res.CongestedSeries))
}

func runFig8(env *spacebooking.Environment, opts runOpts) error {
	res, err := env.RunFig8(spacebooking.Fig8Config{Seed: opts.seed})
	if err != nil {
		return err
	}
	if err := opts.render(res.Table()); err != nil {
		return err
	}
	algs := []string{"CEAR", "SSP", "ECARS", "ERU", "ERA"}
	headers := append([]string{"slot"}, algs...)
	rows := make([][]float64, res.Horizon)
	for t := 0; t < res.Horizon; t++ {
		row := []float64{float64(t)}
		for _, a := range algs {
			row = append(row, res.Series[a][t])
		}
		rows[t] = row
	}
	if err := opts.writeCSV("fig8.csv", headers, rows); err != nil {
		return err
	}
	fmt.Fprintln(opts.out, "\ncumulative welfare ratio over time:")
	var series []metrics.Series
	for _, a := range algs {
		series = append(series, metrics.Series{Name: a, Values: res.Series[a]})
	}
	fmt.Fprint(opts.out, metrics.MultiSeriesPlot(series, 88))
	return nil
}

func runFig9(env *spacebooking.Environment, opts runOpts) error {
	res, err := env.RunFig9(spacebooking.Fig9Config{Seeds: []int64{opts.seed}})
	if err != nil {
		return err
	}
	valT, f2T := res.Tables()
	if err := opts.render(valT, f2T); err != nil {
		return err
	}
	toRows := func(points []spacebooking.SweepPoint) [][]float64 {
		rows := make([][]float64, len(points))
		for i, p := range points {
			rows[i] = []float64{p.X, p.Mean, p.Std}
		}
		return rows
	}
	if err := opts.writeCSV("fig9_valuation.csv", []string{"valuation", "mean", "std"}, toRows(res.ValuationSweep)); err != nil {
		return err
	}
	return opts.writeCSV("fig9_f2.csv", []string{"f2", "mean", "std"}, toRows(res.F2Sweep))
}

func runAblate(env *spacebooking.Environment, opts runOpts) error {
	res, err := env.RunAblations(opts.seed)
	if err != nil {
		return err
	}
	return opts.render(res.Table())
}

func runAdaptive(env *spacebooking.Environment, opts runOpts) error {
	res, err := env.RunAdaptiveComparison(opts.seed)
	if err != nil {
		return err
	}
	return opts.render(res.Table())
}

// runScenario drives a declarative workload spec through the paper's
// five algorithms. Every run rebuilds the streaming generator from the
// same spec and seed, so all algorithms see the identical request
// sequence — the comparison isolates admission policy, not workload
// noise.
func runScenario(env *spacebooking.Environment, opts runOpts) error {
	spec := opts.spec
	fmt.Fprintf(opts.out, "scenario %q: %d classes", spec.Name, len(spec.Classes))
	if tl := spec.EventTimeline(); len(tl) > 0 {
		fmt.Fprintf(opts.out, ", events %s", strings.Join(tl, " "))
	}
	fmt.Fprintln(opts.out)

	t := metrics.NewTable(fmt.Sprintf("Scenario %q — algorithm comparison", spec.Name),
		"algorithm", "accepted", "total", "welfare", "revenue")
	rows := make([][]float64, 0, 5)
	for _, alg := range []sim.AlgorithmKind{sim.AlgCEAR, sim.AlgSSP, sim.AlgECARS, sim.AlgERU, sim.AlgERA} {
		gen, err := scenario.NewGenerator(spec, env.ScenarioBinding())
		if err != nil {
			return err
		}
		wl := env.WorkloadConfig(env.DefaultArrivalRate(), spec.Seed)
		rc, err := env.RunConfig(alg, wl)
		if err != nil {
			return err
		}
		rc.Source = gen
		rc.SpecName = spec.Name
		res, err := env.Run(rc)
		if err != nil {
			return err
		}
		t.AddRow(alg.String(),
			fmt.Sprintf("%d", res.Accepted), fmt.Sprintf("%d", res.TotalRequests),
			fmt.Sprintf("%.4f", res.WelfareRatio), fmt.Sprintf("%.3g", res.Revenue))
		rows = append(rows, []float64{float64(alg), float64(res.Accepted), float64(res.TotalRequests), res.WelfareRatio, res.Revenue})
	}
	if err := opts.render(t); err != nil {
		return err
	}
	return opts.writeCSV("scenario.csv", []string{"alg", "accepted", "total", "welfare", "revenue"}, rows)
}

func runCompetitive(env *spacebooking.Environment, opts runOpts) error {
	res, err := env.RunCompetitive(0, opts.seed)
	if err != nil {
		return err
	}
	return opts.render(res.Table())
}
