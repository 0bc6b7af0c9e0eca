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
	figures = map[string]func(runOpts) (*spacebooking.Figure, error){
		"fig6":        func(o runOpts) (*spacebooking.Figure, error) { return o.env.RunFig6(o.seeds) },
		"fig7":        func(o runOpts) (*spacebooking.Figure, error) { return o.env.RunFig7(o.seed) },
		"fig8":        func(o runOpts) (*spacebooking.Figure, error) { return o.env.RunFig8(o.seed) },
		"fig9":        func(o runOpts) (*spacebooking.Figure, error) { return o.env.RunFig9([]int64{o.seed}) },
		"ablate":      func(o runOpts) (*spacebooking.Figure, error) { return tableFigure(o.env.RunAblations(o.seed)) },
		"adaptive":    func(o runOpts) (*spacebooking.Figure, error) { return tableFigure(o.env.RunAdaptiveComparison(o.seed)) },
		"competitive": func(o runOpts) (*spacebooking.Figure, error) { return tableFigure(o.env.RunCompetitive(0, o.seed)) },
		"scenario":    runScenario,
	}
	allFigures = []string{"fig6", "fig7", "fig8", "fig9", "ablate", "adaptive", "competitive"}
)

// tableFigure is the figure of a runner whose result renders one table.
func tableFigure[R interface{ Table() *metrics.Table }](res R, err error) (*spacebooking.Figure, error) {
	if err != nil {
		return nil, err
	}
	return &spacebooking.Figure{Tables: []*metrics.Table{res.Table()}}, nil
}

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
	opts.env = env
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
			if err := opts.emit(figures[fig](opts)); err != nil {
				return failed(fmt.Errorf("%s: %w", fig, err))
			}
		}
		fmt.Fprintf(stdout, "\nall figures reproduced in %v\n", time.Since(start).Round(time.Second))
	} else if err := opts.emit(figures[figure](opts)); err != nil {
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

// runOpts carries the environment, output stream, seeds, spec and
// export directory to the figure runners.
type runOpts struct {
	env    *spacebooking.Environment
	out    io.Writer
	seed   int64
	seeds  []int64
	csvDir string
	spec   scenario.Spec
}

// emit prints a figure's tables, each after a blank line, then its
// text, and writes its exports to the -csv directory when one is set.
func (o runOpts) emit(fig *spacebooking.Figure, err error) error {
	if err != nil {
		return err
	}
	for _, t := range fig.Tables {
		fmt.Fprintln(o.out)
		if err := t.Render(o.out); err != nil {
			return err
		}
	}
	fmt.Fprint(o.out, fig.Text)
	if o.csvDir == "" {
		return nil
	}
	for _, c := range fig.CSVs {
		f, err := os.Create(filepath.Join(o.csvDir, c.Name+".csv"))
		if err != nil {
			return err
		}
		err = c.Write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runScenario drives a declarative workload spec through the paper's
// five algorithms. Every run rebuilds the streaming generator from the
// same spec and seed, so all algorithms see the identical request
// sequence — the comparison isolates admission policy, not workload
// noise.
func runScenario(opts runOpts) (*spacebooking.Figure, error) {
	env, spec := opts.env, opts.spec
	fmt.Fprintf(opts.out, "scenario %q: %d classes", spec.Name, len(spec.Classes))
	if tl := spec.EventTimeline(); len(tl) > 0 {
		fmt.Fprintf(opts.out, ", events %s", strings.Join(tl, " "))
	}
	fmt.Fprintln(opts.out)

	t := metrics.NewTable(fmt.Sprintf("Scenario %q — algorithm comparison", spec.Name),
		"algorithm", "accepted", "total", "welfare", "revenue")
	out := spacebooking.CSV{Name: "scenario", Axis: "alg", Columns: []metrics.Series{
		{Name: "accepted"}, {Name: "total"}, {Name: "welfare"}, {Name: "revenue"}}}
	for _, alg := range sim.PaperAlgorithms() {
		gen, err := scenario.NewGenerator(spec, env.ScenarioBinding())
		if err != nil {
			return nil, err
		}
		wl := env.WorkloadConfig(env.DefaultArrivalRate(), spec.Seed)
		rc, err := env.RunConfig(alg, wl)
		if err != nil {
			return nil, err
		}
		rc.Source = gen
		rc.SpecName = spec.Name
		res, err := env.Run(rc)
		if err != nil {
			return nil, err
		}
		t.AddRow(alg.String(),
			fmt.Sprintf("%d", res.Accepted), fmt.Sprintf("%d", res.TotalRequests),
			fmt.Sprintf("%.4f", res.WelfareRatio), fmt.Sprintf("%.3g", res.Revenue))
		out.X = append(out.X, float64(alg))
		for i, v := range []float64{float64(res.Accepted), float64(res.TotalRequests), res.WelfareRatio, res.Revenue} {
			out.Columns[i].Values = append(out.Columns[i].Values, v)
		}
	}
	return &spacebooking.Figure{Tables: []*metrics.Table{t}, CSVs: []spacebooking.CSV{out}}, nil
}
