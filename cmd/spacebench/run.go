package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"spacebooking"
	"spacebooking/internal/metrics"
	"spacebooking/internal/obs"
	"spacebooking/internal/pricing"
	"spacebooking/internal/scenario"
	"spacebooking/internal/sim"
	"spacebooking/internal/trace"
	"spacebooking/internal/workload"
)

// runSingle is the run subcommand: one simulation with one admission
// algorithm, printing the full result.
func runSingle(args []string, stdout, stderr io.Writer) int {
	const name = "spacebench run"
	var o shared
	fs := o.newFlagSet(name, "[flags]", "small", stderr)
	algName := fs.String("alg", "CEAR", "algorithm: CEAR, SSP, ECARS, ERU, ERA, CEAR-NE, CEAR-AA, CEAR-LIN, CEAR-AD")
	rate := fs.Float64("rate", 0, "request arrival rate per minute (0 = scale default)")
	valuation := fs.Float64("valuation", 0, "request valuation ρ (0 = scale default)")
	f1 := fs.Float64("f1", 1, "bandwidth conservativeness parameter F1")
	f2 := fs.Float64("f2", 1, "energy conservativeness parameter F2")
	replayFile := fs.String("replay", "", "replay the decisions of a -trace file or a spaced -audit-log instead of generating a workload")
	traceFile := fs.String("trace", "", "write a JSON-lines decision trace (replayable with -replay) to this file")
	if code, ok := o.parse(fs, args, stdout); !ok {
		return code
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	if !(*rate >= 0 && *rate <= math.MaxFloat64 && *valuation >= 0 && *valuation <= math.MaxFloat64) {
		return fail(stderr, name, 2, fmt.Errorf("-rate %g and -valuation %g must be finite and not negative (0 = scale default)", *rate, *valuation))
	}
	failed := func(err error) int { return fail(stderr, name, 1, err) }
	if o.spec != "" && *replayFile != "" {
		return failed(errors.New("-spec and -replay are mutually exclusive"))
	}
	scale, err := spacebooking.ParseScale(o.scale)
	if err != nil {
		return failed(err)
	}
	alg, err := sim.ParseAlgorithm(*algName)
	if err != nil {
		return failed(err)
	}
	params, err := pricing.Derive(*f1, *f2)
	if err != nil {
		return failed(err)
	}
	// The workload source's inputs are read before the environment is
	// built: the flat paper workload by default, a scenario spec, or a
	// recorded trace to play back.
	var spec scenario.Spec
	var replayed []workload.Request
	var replayName string
	switch {
	case o.spec != "":
		if spec, err = scenario.Load(o.spec); err != nil {
			return failed(err)
		}
	case *replayFile != "":
		if replayed, replayName, err = readRecording(*replayFile); err != nil {
			return failed(err)
		}
	}

	// Ctrl-C / SIGTERM cancels the run between requests instead of
	// letting it play out to the horizon.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg, srv, err := o.instrument(stdout)
	if err != nil {
		return failed(err)
	}
	if srv != nil {
		defer srv.Close()
	}

	start := time.Now()
	env, err := spacebooking.NewEnvironment(spacebooking.EnvConfig{Scale: scale})
	if err != nil {
		return failed(err)
	}
	if *rate == 0 {
		*rate = env.DefaultArrivalRate()
	}
	if *valuation == 0 {
		*valuation = env.DefaultValuation()
	}

	wl := env.WorkloadConfig(*rate, o.seed)
	wl.Valuation = *valuation
	rc, err := sim.DefaultRunConfig(alg, wl)
	if err != nil {
		return failed(err)
	}
	rc.Pricing = params
	rc.Obs = reg
	var specName string
	var eventTimeline []string
	// source is what the requests came from, printed in the header and
	// echoed in the report's config. The one request slice feeds both the
	// run and the assumptions check.
	var source map[string]any
	var sourceLine string
	switch {
	case o.spec != "":
		if rc.Requests, err = scenario.Generate(spec, env.ScenarioBinding()); err != nil {
			return failed(err)
		}
		rc.SpecName = spec.Name
		specName = spec.Name
		eventTimeline = spec.EventTimeline()
		source = map[string]any{"seed": spec.Seed}
		sourceLine = fmt.Sprintf("workload         spec %s, seed %d", spec.Name, spec.Seed)
	case *replayFile != "":
		rc.Requests = replayed
		rc.SpecName = replayName
		specName = replayName
		source = map[string]any{"replay": *replayFile, "replay_requests": len(replayed)}
		sourceLine = fmt.Sprintf("workload         %d requests replayed from %s", len(replayed), *replayFile)
	default:
		wlSpan := reg.StartPhase("workload_generate")
		rc.Requests, err = workload.Generate(wl)
		wlSpan.End()
		if err != nil {
			return failed(err)
		}
		source = map[string]any{"rate_per_min": *rate, "seed": o.seed, "valuation": *valuation}
		sourceLine = fmt.Sprintf("arrival rate     %.3g req/min, seed %d, valuation %.3g", *rate, o.seed, *valuation)
	}

	var tw *trace.Writer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return failed(err)
		}
		tw = trace.NewWriter(f)
		rc.Trace = tw
	}

	res, err := sim.RunContext(ctx, env.Provider, rc)
	if tw != nil {
		if cerr := tw.Close(); err == nil {
			err = cerr
		}
	}
	if errors.Is(err, context.Canceled) {
		return fail(stderr, name, 130, err)
	}
	if err != nil {
		return failed(err)
	}

	// Diagnostic: how far this workload strays from §V's assumptions.
	assumptions, err := sim.CheckAssumptions(env.Provider, rc.Pricing, rc.Energy, rc.Requests)
	if err != nil {
		return failed(err)
	}

	w := stdout
	fmt.Fprintf(w, "algorithm        %s\n", res.Algorithm)
	if specName != "" {
		mode := "spec"
		if *replayFile != "" {
			mode = "replayed spec"
		}
		fmt.Fprintf(w, "scenario         %s (%s)\n", specName, mode)
	} else if *replayFile != "" {
		fmt.Fprintf(w, "scenario         replayed trace %s\n", *replayFile)
	}
	if len(eventTimeline) > 0 {
		fmt.Fprintf(w, "events           %s\n", strings.Join(eventTimeline, " "))
	}
	fmt.Fprintf(w, "scale            %s (%d satellites, horizon %d min)\n", scale, env.Provider.NumSats(), env.Provider.Horizon())
	fmt.Fprintln(w, sourceLine)
	fmt.Fprintf(w, "requests         %d total, %d accepted (%.1f%%)\n",
		res.TotalRequests, res.Accepted, 100*float64(res.Accepted)/float64(max(1, res.TotalRequests)))
	fmt.Fprintf(w, "welfare ratio    %.4f\n", res.WelfareRatio)
	fmt.Fprintf(w, "operator revenue %.4g\n", res.Revenue)
	fmt.Fprintf(w, "avg path hops    %.2f (one-way latency %.1f ms)\n", res.AvgAcceptedHops, res.AvgAcceptedLatencyMs)
	fmt.Fprintf(w, "assumptions 1-2  %s\n", assumptions)
	if len(res.Rejections) > 0 {
		fmt.Fprintf(w, "rejections:\n")
		reasons := make([]string, 0, len(res.Rejections))
		for reason := range res.Rejections {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		for _, reason := range reasons {
			fmt.Fprintf(w, "  %-18s %d\n", reason, res.Rejections[reason])
		}
	}
	fmt.Fprintf(w, "mean depleted satellites  %.2f (peak %d)\n", res.MeanDepleted(), slices.Max(res.DepletedPerSlot))
	fmt.Fprintf(w, "mean congested links      %.2f (peak %d)\n", res.MeanCongested(), slices.Max(res.CongestedPerSlot))
	fmt.Fprintf(w, "\ndepleted satellites over time:\n%s\n", metrics.Sparkline(res.DepletedPerSlot, 96))
	fmt.Fprintf(w, "congested links over time:\n%s\n", metrics.Sparkline(res.CongestedPerSlot, 96))
	fmt.Fprintf(w, "cumulative welfare ratio over time:\n%s\n", metrics.SparklineFloat(res.CumulativeWelfareRatio, 96))
	fmt.Fprintf(w, "\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))

	if o.report != "" {
		rep := buildReport(scale, env, res, source, *f1, *f2, specName, eventTimeline, reg)
		if err := obs.WriteReportFile(o.report, rep); err != nil {
			return failed(err)
		}
		fmt.Fprintf(w, "report written to %s\n", o.report)
	}
	return 0
}

// readRecording reads a decision trace or an audit log and returns the
// requests its decisions admitted, in commit order, and the recorded spec
// name.
func readRecording(path string) ([]workload.Request, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	records, err := trace.Read(f)
	f.Close()
	if err != nil {
		return nil, "", err
	}
	return scenario.RequestsFromTrace(records)
}

// buildReport assembles the machine-readable run report: the effective
// configuration (source names what the requests came from), the §VI-A
// result metrics, and the instrumentation snapshot.
func buildReport(scale spacebooking.Scale, env *spacebooking.Environment,
	res *sim.Result, source map[string]any, f1, f2 float64,
	specName string, eventTimeline []string, reg *obs.Registry) *obs.Report {
	rep := obs.NewReport("spacebench")
	rep.SetConfig("scale", scale.String())
	if specName != "" {
		rep.SetConfig("spec", specName)
	}
	if len(eventTimeline) > 0 {
		rep.SetConfig("spec_events", strings.Join(eventTimeline, " "))
	}
	rep.SetConfig("algorithm", res.Algorithm)
	for key, v := range source {
		rep.SetConfig(key, v)
	}
	rep.SetConfig("f1", f1)
	rep.SetConfig("f2", f2)
	rep.SetConfig("satellites", env.Provider.NumSats())
	rep.SetConfig("horizon_min", env.Provider.Horizon())

	rep.SetMetric("requests_total", float64(res.TotalRequests))
	rep.SetMetric("requests_accepted", float64(res.Accepted))
	rep.SetMetric("welfare_ratio", res.WelfareRatio)
	rep.SetMetric("revenue", res.Revenue)
	rep.SetMetric("avg_accepted_hops", res.AvgAcceptedHops)
	rep.SetMetric("avg_accepted_latency_ms", res.AvgAcceptedLatencyMs)
	rep.SetMetric("mean_depleted_sats", res.MeanDepleted())
	rep.SetMetric("peak_depleted_sats", float64(slices.Max(res.DepletedPerSlot)))
	rep.SetMetric("mean_congested_links", res.MeanCongested())
	rep.SetMetric("peak_congested_links", float64(slices.Max(res.CongestedPerSlot)))
	for reason, n := range res.Rejections {
		rep.SetMetric("rejected."+reason, float64(n))
	}
	rep.Finish(reg)
	return rep
}
