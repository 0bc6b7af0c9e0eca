package spacebooking

import (
	"fmt"
	"io"
	"strings"

	"spacebooking/internal/metrics"
	"spacebooking/internal/offline"
	"spacebooking/internal/pricing"
	"spacebooking/internal/scenario"
	"spacebooking/internal/sim"
	"spacebooking/internal/workload"
)

// DefaultSeeds are the five seeds behind the paper's error bars.
var DefaultSeeds = []int64{101, 202, 303, 404, 505}

// SweepRates returns the arrival-rate sweep of Fig. 6, scaled around the
// environment's default rate: ×{0.5, 1, 1.5, 2, 2.5}. At ScaleFull with
// the paper default of 10/min this is exactly {5, 10, 15, 20, 25}.
func (e *Environment) SweepRates() []float64 {
	base := e.arrivalRate
	return []float64{0.5 * base, base, 1.5 * base, 2 * base, 2.5 * base}
}

// Figure is one reproduced figure: the tables it prints, the text printed
// after them, and the cells it exports as CSV.
type Figure struct {
	Tables []*metrics.Table
	Text   string
	CSVs   []CSV
}

// CSV is one export, Name.csv: a row per X value, holding X and then
// each column's value at that row.
type CSV struct {
	Name, Axis string
	X          []float64
	Columns    []metrics.Series
}

// Write writes the export's header and rows.
func (c CSV) Write(w io.Writer) error {
	headers := []string{c.Axis}
	for _, col := range c.Columns {
		headers = append(headers, col.Name)
	}
	rows := make([][]float64, len(c.X))
	for i, x := range c.X {
		rows[i] = []float64{x}
		for _, col := range c.Columns {
			rows[i] = append(rows[i], col.Values[i])
		}
	}
	return metrics.WriteCSV(w, headers, rows)
}

// sweep is one figure axis: every algorithm at every value, each over
// seeds, with one metric reduced to mean ± std per cell.
type sweep struct {
	name, title string
	// axis names the values: as is in the table, lower-cased in the CSV.
	axis   string
	values []float64
	algs   []sim.AlgorithmKind
	seeds  []int64
	// apply sets one axis value on a run's config.
	apply func(rc *sim.RunConfig, x float64) error
	// metric names the value read takes from a run's result.
	metric string
	read   func(*sim.Result) float64
}

func welfareRatio(r *sim.Result) float64 { return r.WelfareRatio }

// runSweeps runs the jobs of every sweep as one runJobs batch and
// renders each sweep's cells as its table and its CSV export: a mean and
// a std column per algorithm.
func (e *Environment) runSweeps(sweeps ...sweep) (*Figure, error) {
	type job struct {
		s    *sweep
		alg  sim.AlgorithmKind
		x    float64
		seed int64
	}
	var jobs []job
	for i := range sweeps {
		s := &sweeps[i]
		for _, alg := range s.algs {
			for _, x := range s.values {
				for _, seed := range s.seeds {
					jobs = append(jobs, job{s, alg, x, seed})
				}
			}
		}
	}
	results, err := e.runJobs(len(jobs), func(i int) (sim.RunConfig, error) {
		j := jobs[i]
		rc, err := sim.DefaultRunConfig(j.alg, e.WorkloadConfig(e.arrivalRate, j.seed))
		if err != nil {
			return rc, err
		}
		return rc, j.s.apply(&rc, j.x)
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{}
	for _, s := range sweeps {
		mean, std := make([][]float64, len(s.algs)), make([][]float64, len(s.algs))
		out := CSV{Name: s.name, Axis: strings.ToLower(s.axis), X: s.values}
		for a, alg := range s.algs {
			mean[a], std[a] = make([]float64, len(s.values)), make([]float64, len(s.values))
			for i, x := range s.values {
				cell := make([]float64, len(s.seeds))
				for k := range cell {
					cell[k], results = s.read(results[0]), results[1:]
				}
				mean[a][i], std[a][i] = metrics.MeanStd(cell)
				e.logf("%s %-8s %s %-8.3g %s %.3f ± %.3f", s.name, alg, s.axis, x, s.metric, mean[a][i], std[a][i])
			}
			prefix := alg.String() + "_"
			if len(s.algs) == 1 {
				prefix = ""
			}
			out.Columns = append(out.Columns,
				metrics.Series{Name: prefix + "mean", Values: mean[a]},
				metrics.Series{Name: prefix + "std", Values: std[a]})
		}
		fig.Tables = append(fig.Tables, s.table(mean, std))
		fig.CSVs = append(fig.CSVs, out)
	}
	return fig, nil
}

// table pivots a sweep's cells, mean[algorithm][value] and its std: for
// a single algorithm, a row per value; otherwise a row per algorithm
// with a mean±std column per value.
func (s *sweep) table(mean, std [][]float64) *metrics.Table {
	if len(s.algs) == 1 {
		t := metrics.NewTable(s.title, s.axis, s.metric, "std")
		for i, x := range s.values {
			t.AddFloatRow(metrics.FormatFloat(x), mean[0][i], std[0][i])
		}
		return t
	}
	cols := []string{"algorithm"}
	for _, x := range s.values {
		cols = append(cols, s.axis+"="+metrics.FormatFloat(x))
	}
	t := metrics.NewTable(s.title, cols...)
	for a, alg := range s.algs {
		cells := []string{alg.String()}
		for i := range s.values {
			cells = append(cells, fmt.Sprintf("%.3f±%.3f", mean[a][i], std[a][i]))
		}
		t.AddRow(cells...)
	}
	return t
}

// RunFig6 reproduces Fig. 6: the social welfare ratio of every paper
// algorithm over the arrival-rate sweep, mean ± std over seeds.
func (e *Environment) RunFig6(seeds []int64) (*Figure, error) {
	return e.runSweeps(e.fig6(seeds))
}

func (e *Environment) fig6(seeds []int64) sweep {
	return sweep{
		name:  "fig6",
		title: "Fig. 6 — social welfare ratio vs request arrival rate (mean ± std over seeds)",
		axis:  "rate", values: e.SweepRates(), algs: sim.PaperAlgorithms(), seeds: seeds,
		apply: func(rc *sim.RunConfig, rate float64) error {
			rc.Workload.ArrivalRatePerSlot = rate
			return nil
		},
		metric: "welfare", read: welfareRatio,
	}
}

// RunFig9 reproduces Fig. 9: CEAR's social welfare ratio under different
// request valuations and under different conservativeness parameters
// F2, mean ± std over seeds.
func (e *Environment) RunFig9(seeds []int64) (*Figure, error) {
	return e.runSweeps(e.fig9(seeds)...)
}

func (e *Environment) fig9(seeds []int64) []sweep {
	// The paper's {0.1, 0.5, 1, 2.3, 5, 10}×1e9, as the same multiples of
	// the environment's default valuation (which IS 2.3e9 at ScaleFull).
	var valuations []float64
	for _, m := range []float64{0.1 / 2.3, 0.5 / 2.3, 1 / 2.3, 1, 5 / 2.3, 10 / 2.3} {
		valuations = append(valuations, m*e.valuation)
	}
	cear := []sim.AlgorithmKind{sim.AlgCEAR}
	return []sweep{{
		name:  "fig9_valuation",
		title: "Fig. 9 (left) — CEAR welfare ratio vs valuation",
		axis:  "valuation", values: valuations, algs: cear, seeds: seeds,
		apply: func(rc *sim.RunConfig, valuation float64) error {
			rc.Workload.Valuation = valuation
			return nil
		},
		metric: "welfare", read: welfareRatio,
	}, {
		name:  "fig9_f2",
		title: "Fig. 9 (right) — CEAR welfare ratio vs F2",
		axis:  "F2", values: []float64{0.5, 1, 2, 4, 8}, algs: cear, seeds: seeds,
		apply: func(rc *sim.RunConfig, f2 float64) (err error) {
			rc.Pricing, err = pricing.Derive(1, f2)
			return err
		},
		metric: "welfare", read: welfareRatio,
	}}
}

// runSeries runs each algorithm once at rate and seed and exports the
// per-slot series read takes from each run, one column per algorithm.
func (e *Environment) runSeries(name string, algs []sim.AlgorithmKind, rate float64, seed int64, read func(*sim.Result) []float64) (CSV, error) {
	results, err := e.runJobs(len(algs), func(i int) (sim.RunConfig, error) {
		return sim.DefaultRunConfig(algs[i], e.WorkloadConfig(rate, seed))
	})
	if err != nil {
		return CSV{}, err
	}
	out := CSV{Name: name, Axis: "slot", X: make([]float64, e.Provider.Horizon())}
	for t := range out.X {
		out.X[t] = float64(t)
	}
	for i, alg := range algs {
		s := metrics.Series{Name: alg.String(), Values: read(results[i])}
		out.Columns = append(out.Columns, s)
		e.logf("%s %-8s mean %.4g, final %.4g", name, alg, s.Mean(), s.Values[len(s.Values)-1])
	}
	return out, nil
}

func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// RunFig7 reproduces Fig. 7: energy-depleted satellites (below 20%
// battery) per slot at the default rate, and congested links (below 10%
// residual) per slot at 2.5× the default rate, the paper's 25/min. The
// tables summarise each series by its mean, peak and final value.
func (e *Environment) RunFig7(seed int64) (*Figure, error) {
	algs := sim.PaperAlgorithms()
	depleted, err := e.runSeries("fig7_depleted", algs, e.arrivalRate, seed,
		func(r *sim.Result) []float64 { return floats(r.DepletedPerSlot) })
	if err != nil {
		return nil, err
	}
	congested, err := e.runSeries("fig7_congested", algs, 2.5*e.arrivalRate, seed,
		func(r *sim.Result) []float64 { return floats(r.CongestedPerSlot) })
	if err != nil {
		return nil, err
	}
	return &Figure{
		Tables: []*metrics.Table{
			summary("Fig. 7 (left) — energy-depleted satellites over time", depleted.Columns),
			summary("Fig. 7 (right) — congested links over time (high rate)", congested.Columns),
		},
		CSVs: []CSV{depleted, congested},
	}, nil
}

// summary renders each series' mean, peak and final value.
func summary(title string, series []metrics.Series) *metrics.Table {
	t := metrics.NewTable(title, "algorithm", "mean", "peak", "final")
	for _, s := range series {
		t.AddFloatRow(s.Name, s.Mean(), s.Max(), s.Values[len(s.Values)-1])
	}
	return t
}

// RunFig8 reproduces Fig. 8: every paper algorithm's cumulative social
// welfare ratio per slot at the default rate, tabled at quarter marks of
// the horizon and plotted.
func (e *Environment) RunFig8(seed int64) (*Figure, error) {
	ratio, err := e.runSeries("fig8", sim.PaperAlgorithms(), e.arrivalRate, seed,
		func(r *sim.Result) []float64 { return r.CumulativeWelfareRatio })
	if err != nil {
		return nil, err
	}
	h := e.Provider.Horizon()
	marks := []int{h / 4, h / 2, 3 * h / 4, h - 1}
	t := metrics.NewTable("Fig. 8 — cumulative social welfare ratio over time", "algorithm",
		fmt.Sprintf("t=%d", marks[0]), fmt.Sprintf("t=%d", marks[1]), fmt.Sprintf("t=%d", marks[2]),
		fmt.Sprintf("t=%d (final)", marks[3]))
	for _, s := range ratio.Columns {
		cells := []string{s.Name}
		for _, m := range marks {
			cells = append(cells, fmt.Sprintf("%.3f", s.Values[m]))
		}
		t.AddRow(cells...)
	}
	return &Figure{
		Tables: []*metrics.Table{t},
		Text:   "\ncumulative welfare ratio over time:\n" + metrics.MultiSeriesPlot(ratio.Columns, 88),
		CSVs:   []CSV{ratio},
	}, nil
}

// AblationResult compares CEAR against its ablated variants.
type AblationResult struct {
	// Rows, keyed by variant name: welfare ratio, mean depleted, mean
	// congested, operator revenue.
	Rows map[string]AblationRow
}

// AblationRow is one variant's outcome.
type AblationRow struct {
	WelfareRatio  float64
	MeanDepleted  float64
	MeanCongested float64
	Revenue       float64
}

// RunAblations compares full CEAR with CEAR-NE (no energy pricing),
// CEAR-AA (no admission control) and CEAR-LIN (linear pricing) at the
// environment's default rate — the design-choice ablations called out in
// DESIGN.md.
func (e *Environment) RunAblations(seed int64) (*AblationResult, error) {
	variants := []sim.AlgorithmKind{sim.AlgCEAR, sim.AlgCEARNoEnergy, sim.AlgCEARNoAdmission, sim.AlgCEARLinear, sim.AlgCEARAdaptive}
	results, err := e.runJobs(len(variants), func(i int) (sim.RunConfig, error) {
		return sim.DefaultRunConfig(variants[i], e.WorkloadConfig(2*e.arrivalRate, seed))
	})
	if err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}
	out := &AblationResult{Rows: make(map[string]AblationRow, len(variants))}
	for i, res := range results {
		out.Rows[variants[i].String()] = AblationRow{
			WelfareRatio:  res.WelfareRatio,
			MeanDepleted:  res.MeanDepleted(),
			MeanCongested: res.MeanCongested(),
			Revenue:       res.Revenue,
		}
		e.logf("ablation %-9s welfare %.3f depleted %.2f congested %.2f",
			variants[i], res.WelfareRatio, res.MeanDepleted(), res.MeanCongested())
	}
	return out, nil
}

// Table renders the ablation comparison.
func (r *AblationResult) Table() *metrics.Table {
	t := metrics.NewTable("Ablations — CEAR design choices (2× default load)",
		"variant", "welfare", "mean depleted", "mean congested", "revenue")
	for _, name := range []string{"CEAR", "CEAR-NE", "CEAR-AA", "CEAR-LIN", "CEAR-AD"} {
		row, ok := r.Rows[name]
		if !ok {
			continue
		}
		t.AddFloatRow(name, row.WelfareRatio, row.MeanDepleted, row.MeanCongested, row.Revenue)
	}
	return t
}

// CompetitiveResult reports the empirical competitive ratio of CEAR
// against the offline greedy estimate, plus a certified bandwidth-cut
// upper bound on OPT so the true ratio is bracketed.
type CompetitiveResult struct {
	OnlineWelfare    float64
	OfflineWelfare   float64
	UpperBound       float64
	EmpiricalRatio   float64
	WorstCaseRatio   float64 // UpperBound / OnlineWelfare
	TheoreticalBound float64
	OnlineAccepted   int
	OfflineAccepted  int
}

// RunCompetitive runs CEAR online and the offline greedy on the same
// workload and reports the welfare ratio between them, next to the
// theoretical bound 2·log2(μ1μ2)+1 of Theorem 1. Note the offline greedy
// under-estimates OPT, so the empirical ratio is an optimistic lower
// bound (see DESIGN.md substitution #4).
func (e *Environment) RunCompetitive(rate float64, seed int64) (*CompetitiveResult, error) {
	if rate == 0 {
		rate = 2 * e.arrivalRate
	}
	wl := e.WorkloadConfig(rate, seed)
	rc, err := sim.DefaultRunConfig(sim.AlgCEAR, wl)
	if err != nil {
		return nil, err
	}
	reqs, err := workload.Generate(wl)
	if err != nil {
		return nil, err
	}
	rc.Requests = reqs
	results, err := e.runJobs(1, func(int) (sim.RunConfig, error) { return rc, nil })
	if err != nil {
		return nil, err
	}
	online := results[0]
	off, err := offline.Greedy(e.Provider, rc.Energy, reqs)
	if err != nil {
		return nil, err
	}
	ub, err := offline.CutUpperBound(e.Provider, reqs)
	if err != nil {
		return nil, err
	}
	res := &CompetitiveResult{
		OnlineWelfare:    online.AcceptedValuation,
		OfflineWelfare:   off.Welfare,
		UpperBound:       ub,
		TheoreticalBound: rc.Pricing.CompetitiveRatio(),
		OnlineAccepted:   online.Accepted,
		OfflineAccepted:  off.Accepted,
	}
	if online.AcceptedValuation > 0 {
		res.EmpiricalRatio = off.Welfare / online.AcceptedValuation
		res.WorstCaseRatio = ub / online.AcceptedValuation
	}
	e.logf("competitive: online %d accepted, offline %d, ratio %.3f (<= %.3f certified, bound %.1f)",
		res.OnlineAccepted, res.OfflineAccepted, res.EmpiricalRatio, res.WorstCaseRatio, res.TheoreticalBound)
	return res, nil
}

// Table renders the competitive-ratio comparison.
func (r *CompetitiveResult) Table() *metrics.Table {
	t := metrics.NewTable("Empirical competitive ratio (offline greedy estimate vs CEAR)",
		"metric", "value")
	t.AddRow("online accepted", fmt.Sprintf("%d", r.OnlineAccepted))
	t.AddRow("offline accepted", fmt.Sprintf("%d", r.OfflineAccepted))
	t.AddFloatRow("online welfare", r.OnlineWelfare)
	t.AddFloatRow("offline welfare (greedy est.)", r.OfflineWelfare)
	t.AddFloatRow("certified OPT upper bound", r.UpperBound)
	t.AddFloatRow("empirical ratio (vs greedy)", r.EmpiricalRatio)
	t.AddFloatRow("worst-case ratio (vs UB)", r.WorstCaseRatio)
	t.AddFloatRow("theoretical bound (Thm. 1)", r.TheoreticalBound)
	return t
}

// AdaptiveResult compares static CEAR with the §V-B adaptive controller
// under a strongly time-varying (diurnal) load.
type AdaptiveResult struct {
	StaticWelfare    float64
	AdaptiveWelfare  float64
	StaticDepleted   float64
	AdaptiveDepleted float64
}

// RunAdaptiveComparison runs CEAR and CEAR-AD on the same diurnal
// workload (sinusoidal arrival modulation, ±80% around 2× the default
// rate) — the scenario §V-B's dynamic F1/F2 adjustment targets.
func (e *Environment) RunAdaptiveComparison(seed int64) (*AdaptiveResult, error) {
	profile, err := workload.DiurnalProfile(e.Provider.Horizon()/2, 0.8)
	if err != nil {
		return nil, err
	}
	algs := []sim.AlgorithmKind{sim.AlgCEAR, sim.AlgCEARAdaptive}
	results, err := e.runJobs(len(algs), func(i int) (sim.RunConfig, error) {
		wl := e.WorkloadConfig(2*e.arrivalRate, seed)
		wl.RateProfile = profile
		return sim.DefaultRunConfig(algs[i], wl)
	})
	if err != nil {
		return nil, fmt.Errorf("adaptive comparison: %w", err)
	}
	static, adaptiveRes := results[0], results[1]
	out := &AdaptiveResult{
		StaticWelfare:    static.WelfareRatio,
		AdaptiveWelfare:  adaptiveRes.WelfareRatio,
		StaticDepleted:   static.MeanDepleted(),
		AdaptiveDepleted: adaptiveRes.MeanDepleted(),
	}
	e.logf("adaptive: static %.3f vs adaptive %.3f welfare", out.StaticWelfare, out.AdaptiveWelfare)
	return out, nil
}

// Table renders the adaptive comparison.
func (r *AdaptiveResult) Table() *metrics.Table {
	t := metrics.NewTable("Adaptive parameter setting (§V-B) under diurnal load",
		"variant", "welfare", "mean depleted")
	t.AddFloatRow("CEAR (static F)", r.StaticWelfare, r.StaticDepleted)
	t.AddFloatRow("CEAR-AD (adaptive F)", r.AdaptiveWelfare, r.AdaptiveDepleted)
	return t
}

// RunScenario runs the paper's five algorithms on a declarative workload
// spec and tabulates acceptance, welfare and revenue. The spec is
// generated once and every run reads the same slice, so all algorithms
// see the identical request sequence — the comparison isolates
// admission policy, not workload noise.
func (e *Environment) RunScenario(spec scenario.Spec) (*Figure, error) {
	reqs, err := scenario.Generate(spec, e.ScenarioBinding())
	if err != nil {
		return nil, err
	}
	algs := sim.PaperAlgorithms()
	results, err := e.runJobs(len(algs), func(i int) (sim.RunConfig, error) {
		rc, err := sim.DefaultRunConfig(algs[i], e.WorkloadConfig(e.arrivalRate, spec.Seed))
		rc.Requests = reqs
		rc.SpecName = spec.Name
		return rc, err
	})
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(fmt.Sprintf("Scenario %q — algorithm comparison", spec.Name),
		"algorithm", "accepted", "total", "welfare", "revenue")
	out := CSV{Name: "scenario", Axis: "alg", Columns: []metrics.Series{
		{Name: "accepted"}, {Name: "total"}, {Name: "welfare"}, {Name: "revenue"}}}
	for i, res := range results {
		t.AddRow(algs[i].String(),
			fmt.Sprintf("%d", res.Accepted), fmt.Sprintf("%d", res.TotalRequests),
			fmt.Sprintf("%.4f", res.WelfareRatio), fmt.Sprintf("%.3g", res.Revenue))
		out.X = append(out.X, float64(algs[i]))
		for c, v := range []float64{float64(res.Accepted), float64(res.TotalRequests), res.WelfareRatio, res.Revenue} {
			out.Columns[c].Values = append(out.Columns[c].Values, v)
		}
	}
	return &Figure{Tables: []*metrics.Table{t}, CSVs: []CSV{out}}, nil
}
