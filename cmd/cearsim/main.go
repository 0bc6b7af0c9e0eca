// Command cearsim runs a single LSN simulation with one admission
// algorithm and prints the full result: welfare, revenue, rejection
// breakdown, and compact textual time series of the Fig. 7/8 metrics.
//
// Usage:
//
//	cearsim [-scale small|medium|full]
//	        [-alg CEAR|SSP|ECARS|ERU|ERA|CEAR-NE|CEAR-AA|CEAR-LIN|CEAR-AD]
//	        [-rate R] [-seed N] [-valuation V] [-f1 F] [-f2 F]
//	        [-spec scenario.json] [-record] [-replay recorded.jsonl]
//	        [-trace decisions.jsonl] [-report run.json]
//	        [-debug-addr 127.0.0.1:6060]
//
// -spec drives the run from a declarative scenario spec instead of the
// flat paper workload. -record (with -trace) writes every admitted
// request into the trace, making it a complete recording; -replay runs
// such a recording back through the engine, reproducing every decision,
// price and Result byte-identically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"spacebooking"
	"spacebooking/internal/buildinfo"
	"spacebooking/internal/metrics"
	"spacebooking/internal/obs"
	"spacebooking/internal/pricing"
	"spacebooking/internal/scenario"
	"spacebooking/internal/sim"
	"spacebooking/internal/trace"
	"spacebooking/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	scaleName := flag.String("scale", "small", "experiment scale: small, medium or full")
	algName := flag.String("alg", "CEAR", "algorithm: CEAR, SSP, ECARS, ERU, ERA, CEAR-NE, CEAR-AA, CEAR-LIN, CEAR-AD")
	rate := flag.Float64("rate", 0, "request arrival rate per minute (0 = scale default)")
	seed := flag.Int64("seed", 101, "workload random seed")
	valuation := flag.Float64("valuation", 0, "request valuation ρ (0 = scale default)")
	f1 := flag.Float64("f1", 1, "bandwidth conservativeness parameter F1")
	f2 := flag.Float64("f2", 1, "energy conservativeness parameter F2")
	specFile := flag.String("spec", "", "drive the run from this scenario spec (JSON)")
	record := flag.Bool("record", false, "record every admitted request into the trace (requires -trace)")
	replayFile := flag.String("replay", "", "replay a recorded trace instead of generating a workload")
	traceFile := flag.String("trace", "", "write a JSON-lines decision trace to this file")
	reportFile := flag.String("report", "", "write a machine-readable JSON run report to this file")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /metrics.json on this address (e.g. 127.0.0.1:6060)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.Line("cearsim"))
		return 0
	}
	if *specFile != "" && *replayFile != "" {
		fmt.Fprintln(os.Stderr, "cearsim: -spec and -replay are mutually exclusive")
		return 1
	}
	if *record && *traceFile == "" {
		fmt.Fprintln(os.Stderr, "cearsim: -record requires -trace")
		return 1
	}

	// Ctrl-C / SIGTERM cancels the run between requests instead of
	// letting it play out to the horizon.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scale, err := spacebooking.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	alg, err := sim.ParseAlgorithm(*algName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// Instrumentation is opt-in: the registry exists only when a flag
	// asks for its output, so plain runs keep the no-op fast path.
	var reg *obs.Registry
	if *reportFile != "" || *debugAddr != "" {
		reg = obs.New()
	}
	if *debugAddr != "" {
		srv, err := obs.StartDebugServer(*debugAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer srv.Close()
		fmt.Printf("debug server on http://%s/ (pprof, metrics.json)\n", srv.Addr())
	}

	start := time.Now()
	env, err := spacebooking.NewEnvironment(spacebooking.EnvConfig{Scale: scale})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	env.Obs = reg
	if *rate == 0 {
		*rate = env.DefaultArrivalRate()
	}
	if *valuation == 0 {
		*valuation = env.DefaultValuation()
	}

	wl := env.WorkloadConfig(*rate, *seed)
	wl.Valuation = *valuation
	rc, err := env.RunConfig(alg, wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rc.Pricing, err = pricing.Derive(*f1, *f2, 20, 10)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// Workload source: the flat paper workload by default, a scenario
	// spec's generated stream, or a recorded trace played back.
	var specName string
	var eventTimeline []string
	var sourceReqs []workload.Request
	switch {
	case *specFile != "":
		spec, err := scenario.Load(*specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		gen, err := scenario.NewGenerator(spec, env.ScenarioBinding())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		rc.Source = gen
		rc.SpecName = spec.Name
		specName = spec.Name
		eventTimeline = spec.EventTimeline()
		// A second, independent generation for the assumptions check —
		// byte-identical to the stream the run drains.
		sourceReqs, err = scenario.Generate(spec, env.ScenarioBinding())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	case *replayFile != "":
		f, err := os.Open(*replayFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		records, err := trace.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		reqs, name, err := scenario.RequestsFromTrace(records)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		rc.Source = workload.NewSliceSource(reqs)
		rc.SpecName = name
		specName = name
		sourceReqs = reqs
	}
	rc.RecordRequests = *record

	var tw *trace.Writer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		tw = trace.NewWriter(f)
		rc.Trace = tw
	}

	res, err := env.RunContext(ctx, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	// Diagnostic: how far this workload strays from §V's assumptions.
	reqs := sourceReqs
	if reqs == nil {
		if reqs, err = workload.Generate(wl); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	assumptions, err := sim.CheckAssumptions(env.Provider, rc.Pricing, rc.Energy, reqs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	fmt.Printf("algorithm        %s\n", res.Algorithm)
	if specName != "" {
		mode := "spec"
		if *replayFile != "" {
			mode = "replayed spec"
		}
		fmt.Printf("scenario         %s (%s)\n", specName, mode)
	} else if *replayFile != "" {
		fmt.Printf("scenario         replayed trace %s\n", *replayFile)
	}
	if len(eventTimeline) > 0 {
		fmt.Printf("events           %s\n", strings.Join(eventTimeline, " "))
	}
	fmt.Printf("scale            %s (%d satellites, horizon %d min)\n", scale, env.Provider.NumSats(), env.Provider.Horizon())
	fmt.Printf("arrival rate     %.3g req/min, seed %d, valuation %.3g\n", *rate, *seed, *valuation)
	fmt.Printf("requests         %d total, %d accepted (%.1f%%)\n",
		res.TotalRequests, res.Accepted, 100*float64(res.Accepted)/float64(max(1, res.TotalRequests)))
	fmt.Printf("welfare ratio    %.4f\n", res.WelfareRatio)
	fmt.Printf("operator revenue %.4g\n", res.Revenue)
	fmt.Printf("avg path hops    %.2f (one-way latency %.1f ms)\n", res.AvgAcceptedHops, res.AvgAcceptedLatencyMs)
	fmt.Printf("assumptions 1-2  %s\n", assumptions)
	if len(res.Rejections) > 0 {
		fmt.Printf("rejections:\n")
		reasons := make([]string, 0, len(res.Rejections))
		for reason := range res.Rejections {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		for _, reason := range reasons {
			fmt.Printf("  %-18s %d\n", reason, res.Rejections[reason])
		}
	}
	fmt.Printf("mean depleted satellites  %.2f (peak %d)\n", res.MeanDepleted(), maxInt(res.DepletedPerSlot))
	fmt.Printf("mean congested links      %.2f (peak %d)\n", res.MeanCongested(), maxInt(res.CongestedPerSlot))
	fmt.Printf("\ndepleted satellites over time:\n%s\n", metrics.Sparkline(res.DepletedPerSlot, 96))
	fmt.Printf("congested links over time:\n%s\n", metrics.Sparkline(res.CongestedPerSlot, 96))
	fmt.Printf("cumulative welfare ratio over time:\n%s\n", metrics.SparklineFloat(res.CumulativeWelfareRatio, 96))
	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))

	if *reportFile != "" {
		rep := buildReport(scale, env, rc, res, *rate, *seed, *valuation, *f1, *f2, specName, eventTimeline, reg)
		if err := obs.WriteReportFile(*reportFile, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("report written to %s\n", *reportFile)
	}
	return 0
}

// buildReport assembles the machine-readable run report: the effective
// configuration, the §VI-A result metrics, and the instrumentation
// snapshot.
func buildReport(scale spacebooking.Scale, env *spacebooking.Environment, rc sim.RunConfig,
	res *sim.Result, rate float64, seed int64, valuation, f1, f2 float64,
	specName string, eventTimeline []string, reg *obs.Registry) *obs.Report {
	rep := obs.NewReport("cearsim")
	rep.SetConfig("scale", scale.String())
	if specName != "" {
		rep.SetConfig("spec", specName)
	}
	if len(eventTimeline) > 0 {
		rep.SetConfig("spec_events", strings.Join(eventTimeline, " "))
	}
	rep.SetConfig("algorithm", res.Algorithm)
	rep.SetConfig("rate_per_min", rate)
	rep.SetConfig("seed", seed)
	rep.SetConfig("valuation", valuation)
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
	rep.SetMetric("peak_depleted_sats", float64(maxInt(res.DepletedPerSlot)))
	rep.SetMetric("mean_congested_links", res.MeanCongested())
	rep.SetMetric("peak_congested_links", float64(maxInt(res.CongestedPerSlot)))
	for reason, n := range res.Rejections {
		rep.SetMetric("rejected."+reason, float64(n))
	}
	rep.Finish(reg)
	return rep
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
