// Command spaceload drives a running spaced daemon with synthetic
// booking load and reports client-observed admission latency.
//
// It discovers the server's bookable pairs and workload defaults from
// GET /v1/config, synthesises a request mix with internal/workload (the
// paper's truncated-exponential demand and uniform durations), and
// replays it either open loop (-rate requests/second, arrivals paced
// regardless of responses) or closed loop (-concurrency workers, each
// waiting for its response before sending the next). Every response is
// classified — accepted, rejected, shed ("overloaded"), draining, or
// error — and latencies feed an obs histogram.
//
// Against a real-time server clock a request carries its duration and
// starts when it arrives. Against an arrival-driven one (spaced
// -clock-rate 0, advertised as clock_rate 0) the server's clock follows
// the arrival slots its clients declare, so every request carries the
// arrival, start and end slot the generator gave it, and the run stops
// after one pass over the mix: that pass spans the server's horizon.
//
// The run ends after -n requests, after -duration, or on Ctrl-C,
// whichever comes first, and prints a human summary plus one
// machine-parseable line:
//
//	SUMMARY req_per_sec=... p50_ms=... p99_ms=... accepted=... rejected=... shed=... draining=... errors=...
//
// With -report the same numbers are written as an obs JSON report,
// diffable with `spacestat diff`.
//
// Every option is checked before /v1/config is fetched: a usage error
// (an unknown -mode, an open-loop -rate that is not positive and finite
// or whose arrival interval is under 1ns, -concurrency below 1, neither
// -n nor -duration) exits 2 with nothing on stdout.
//
// Usage:
//
//	spaceload [-addr http://127.0.0.1:8080] [-mode closed|open]
//	          [-rate R] [-concurrency C] [-n N] [-duration D]
//	          [-seed S] [-spec scenario.json] [-report load.json]
//
// With -spec the request mix comes from a declarative scenario spec
// (internal/scenario) bound to the server's advertised pairs and
// horizon instead of the flat paper workload; the spec name and event
// timeline are carried into the SUMMARY line and the -report JSON so
// every run is attributable to a spec version.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spacebooking/internal/buildinfo"
	"spacebooking/internal/obs"
	"spacebooking/internal/scenario"
	"spacebooking/internal/server"
	"spacebooking/internal/topology"
	"spacebooking/internal/trace"
	"spacebooking/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spaceload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL of the spaced daemon")
	mode := fs.String("mode", "closed", "load mode: closed (workers wait for responses) or open (paced arrivals)")
	rate := fs.Float64("rate", 10, "open-loop arrival rate in requests/second")
	concurrency := fs.Int("concurrency", 4, "closed-loop worker count (also the open-loop in-flight cap)")
	n := fs.Int("n", 0, "stop after this many requests (0 = unbounded)")
	duration := fs.Duration("duration", 10*time.Second, "stop after this wall time (0 = unbounded)")
	seed := fs.Int64("seed", 1, "request-mix random seed")
	specFile := fs.String("spec", "", "build the request mix from this scenario spec instead of the flat workload")
	reportFile := fs.String("report", "", "write a machine-readable JSON report of the run")
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, buildinfo.Line("spaceload"))
		return 0
	}
	usage := func(err error) int {
		fmt.Fprintf(stderr, "spaceload: %v\n", err)
		fs.Usage()
		return 2
	}
	interval := float64(time.Second) / *rate
	switch {
	case *mode != "closed" && *mode != "open":
		return usage(fmt.Errorf("unknown mode %q (want closed or open)", *mode))
	case *mode == "open" && !(interval >= 1 && interval < math.MaxInt64):
		return usage(fmt.Errorf("-rate %g must be positive and finite, with an interval of at least 1ns between arrivals", *rate))
	case *concurrency < 1:
		return usage(fmt.Errorf("concurrency %d must be positive", *concurrency))
	case *n == 0 && *duration == 0:
		return usage(fmt.Errorf("need -n or -duration to bound the run"))
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	client := &http.Client{Timeout: 30 * time.Second}
	cfg, err := fetchConfig(client, *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var mix []server.BookRequest
	var specName string
	var specEvents []string
	if *specFile != "" {
		spec, err := scenario.Load(*specFile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		spec.Seed = *seed
		mix, err = buildSpecMix(spec, cfg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		specName = spec.Name
		specEvents = spec.EventTimeline()
	} else if mix, err = buildMix(cfg.Workload, *seed, arrivalDriven(cfg)); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "target %s: %s over %d slots, %d pairs, %d-request mix\n",
		*addr, cfg.Algorithm, cfg.Horizon, len(cfg.Pairs), len(mix))
	if arrivalDriven(cfg) && (*n == 0 || *n > len(mix)) {
		// A second pass would declare slots the clock has left behind:
		// nothing but expired and horizon-exhausted rejections.
		*n = len(mix)
		fmt.Fprintf(stdout, "arrival-driven server clock: stopping after one pass over the mix (%d requests)\n", *n)
	}
	if specName != "" {
		fmt.Fprintf(stdout, "scenario %s", specName)
		if len(specEvents) > 0 {
			fmt.Fprintf(stdout, " (events: %s)", strings.Join(specEvents, " "))
		}
		fmt.Fprintln(stdout)
	}

	lg := &loadGen{
		client:   client,
		url:      *addr + "/v1/book",
		mix:      mix,
		idPrefix: fmt.Sprintf("spaceload-%d", os.Getpid()),
		reg:      obs.New(),
	}
	lg.hist = lg.reg.Histogram("client.latency", nil)

	start := time.Now()
	if *mode == "closed" {
		lg.runClosed(ctx, *concurrency, *n)
	} else {
		lg.runOpen(ctx, time.Duration(interval), *concurrency, *n)
	}
	elapsed := time.Since(start)

	snap := lg.hist.Snapshot()
	completed := lg.accepted.Load() + lg.rejected.Load() + lg.shed.Load() + lg.draining.Load() + lg.errors.Load()
	reqPerSec := float64(completed) / elapsed.Seconds()
	fmt.Fprintf(stdout, "\n%d requests in %v (%.1f req/s)\n", completed, elapsed.Round(time.Millisecond), reqPerSec)
	fmt.Fprintf(stdout, "  accepted  %d\n", lg.accepted.Load())
	fmt.Fprintf(stdout, "  rejected  %d\n", lg.rejected.Load())
	fmt.Fprintf(stdout, "  shed      %d (overloaded)\n", lg.shed.Load())
	fmt.Fprintf(stdout, "  draining  %d\n", lg.draining.Load())
	fmt.Fprintf(stdout, "  errors    %d\n", lg.errors.Load())
	fmt.Fprintf(stdout, "latency p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, max %.3f ms\n",
		1e3*snap.P50, 1e3*snap.P95, 1e3*snap.P99, 1e3*snap.Max)

	// Server-side view: join this run's audit records (matched by our
	// request-id prefix) into a per-phase breakdown. Silently absent
	// when the server runs without tracing.
	breakdown := fetchPhaseBreakdown(client, *addr, lg.idPrefix)
	if breakdown != nil {
		fmt.Fprintf(stdout, "\nserver-side phases (%d audit records, %d with timelines):\n",
			breakdown.Total, breakdown.Sampled)
		for _, ph := range breakdown.Phases {
			fmt.Fprintf(stdout, "  %-16s mean %8.3f ms  max %8.3f ms  (%d spans)\n",
				ph.Name, ph.MeanMs, ph.MaxMs, ph.Spans)
		}
	}

	summaryLine := fmt.Sprintf("SUMMARY req_per_sec=%.2f p50_ms=%.3f p99_ms=%.3f accepted=%d rejected=%d shed=%d draining=%d errors=%d",
		reqPerSec, 1e3*snap.P50, 1e3*snap.P99,
		lg.accepted.Load(), lg.rejected.Load(), lg.shed.Load(), lg.draining.Load(), lg.errors.Load())
	if specName != "" {
		// Keep the line machine-parseable: space-free values only.
		summaryLine += " spec=" + specName
		if len(specEvents) > 0 {
			summaryLine += " events=" + strings.Join(specEvents, ",")
		}
	}
	fmt.Fprintln(stdout, summaryLine)

	if *reportFile != "" {
		rep := obs.NewReport("spaceload")
		rep.SetConfig("addr", *addr)
		rep.SetConfig("mode", *mode)
		rep.SetConfig("rate_per_sec", *rate)
		rep.SetConfig("concurrency", *concurrency)
		rep.SetConfig("seed", *seed)
		rep.SetConfig("server_algorithm", cfg.Algorithm)
		rep.SetConfig("server_horizon", cfg.Horizon)
		if specName != "" {
			rep.SetConfig("spec", specName)
			rep.SetConfig("spec_events", strings.Join(specEvents, " "))
		}
		rep.SetMetric("req_per_sec", reqPerSec)
		rep.SetMetric("p50_ms", 1e3*snap.P50)
		rep.SetMetric("p95_ms", 1e3*snap.P95)
		rep.SetMetric("p99_ms", 1e3*snap.P99)
		rep.SetMetric("accepted", float64(lg.accepted.Load()))
		rep.SetMetric("rejected", float64(lg.rejected.Load()))
		rep.SetMetric("shed", float64(lg.shed.Load()))
		rep.SetMetric("draining", float64(lg.draining.Load()))
		rep.SetMetric("errors", float64(lg.errors.Load()))
		if breakdown != nil {
			rep.SetMetric("server_audit_records", float64(breakdown.Total))
			rep.SetMetric("server_audit_sampled", float64(breakdown.Sampled))
			for _, ph := range breakdown.Phases {
				rep.SetMetric("server_phase_"+ph.Name+"_mean_ms", ph.MeanMs)
			}
		}
		rep.Finish(lg.reg)
		if err := obs.WriteReportFile(*reportFile, rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "report written to %s\n", *reportFile)
	}
	if lg.errors.Load() > 0 && completed == lg.errors.Load() {
		return 1 // nothing but errors: the target is down
	}
	return 0
}

// fetchPhaseBreakdown pulls the server's recent audit records and
// summarises the ones this run produced (client ids carrying prefix):
// counts, sampling coverage and per-phase spans. Returns nil when the
// server has tracing off, is unreachable, or retained none of our
// records.
func fetchPhaseBreakdown(client *http.Client, addr, prefix string) *trace.Summary {
	resp, err := client.Get(addr + "/debug/traces.json")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var payload struct {
		Records []trace.Record `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil
	}
	var ours []trace.Record
	for _, rec := range payload.Records {
		if strings.HasPrefix(rec.ClientID, prefix) {
			ours = append(ours, rec)
		}
	}
	if len(ours) == 0 {
		return nil
	}
	sum := trace.Summarize(ours)
	return &sum
}

// fetchConfig asks the daemon what is bookable.
func fetchConfig(client *http.Client, addr string) (server.ConfigResponse, error) {
	var cfg server.ConfigResponse
	resp, err := client.Get(addr + "/v1/config")
	if err != nil {
		return cfg, fmt.Errorf("spaceload: fetching %s/v1/config: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return cfg, fmt.Errorf("spaceload: %s/v1/config: HTTP %d", addr, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("spaceload: decoding /v1/config: %w", err)
	}
	if len(cfg.Workload.Pairs) == 0 {
		return cfg, fmt.Errorf("spaceload: server advertises no bookable pairs")
	}
	return cfg, nil
}

// arrivalDriven reports whether the server's slot clock follows the
// arrival slots its clients declare instead of wall time.
func arrivalDriven(cfg server.ConfigResponse) bool { return cfg.ClockRate == 0 }

// buildMix synthesises the request pool: the server's own workload
// distribution (demand, durations, valuation) re-seeded for this run.
func buildMix(wcfg workload.Config, seed int64, pinSlots bool) ([]server.BookRequest, error) {
	wcfg.Seed = seed
	if wcfg.ArrivalRatePerSlot <= 0 {
		wcfg.ArrivalRatePerSlot = 10
	}
	reqs, err := workload.Generate(wcfg)
	if err != nil {
		return nil, fmt.Errorf("spaceload: generating request mix: %w", err)
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("spaceload: empty request mix (horizon %d, rate %g)", wcfg.Horizon, wcfg.ArrivalRatePerSlot)
	}
	return wireRequests(reqs, pinSlots), nil
}

// buildSpecMix synthesises the request pool from a scenario spec bound
// to the server's advertised pairs, horizon and default valuation.
// Sites do not travel over the wire, so specs needing them (solar-phased
// diurnals, regional outages) must run through `spacebench run` instead;
// the generator rejects them with a clear error.
func buildSpecMix(spec scenario.Spec, cfg server.ConfigResponse) ([]server.BookRequest, error) {
	b := scenario.Binding{
		Horizon:          cfg.Horizon,
		Pairs:            cfg.Workload.Pairs,
		DefaultValuation: cfg.Workload.Valuation,
	}
	reqs, err := scenario.Generate(spec, b)
	if err != nil {
		return nil, fmt.Errorf("spaceload: generating spec mix: %w", err)
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("spaceload: spec %q generated no requests over horizon %d", spec.Name, cfg.Horizon)
	}
	return wireRequests(reqs, arrivalDriven(cfg)), nil
}

// wireRequests converts a generated stream to its wire form. With
// pinSlots every request declares the arrival, start and end slot the
// generator gave it, as benchmark/client.go does: an arrival-driven
// server clock only moves when a request declares a later slot, and left
// at slot 0 it turns every load test into a measurement of one slot's
// rejects. Without, a request carries its duration and the server's own
// clock says when it arrived — the load mode paces arrivals.
func wireRequests(reqs []workload.Request, pinSlots bool) []server.BookRequest {
	mix := make([]server.BookRequest, len(reqs))
	for i, r := range reqs {
		br := server.BookRequest{
			Src:       wireEndpoint(r.Src),
			Dst:       wireEndpoint(r.Dst),
			RateMbps:  r.RateMbps,
			Valuation: r.Valuation,
		}
		if pinSlots {
			arrival, start, end := r.ArrivalSlot, r.StartSlot, r.EndSlot
			br.ArrivalSlot, br.StartSlot, br.EndSlot = &arrival, &start, &end
		} else {
			br.DurationSlots = r.DurationSlots()
		}
		mix[i] = br
	}
	return mix
}

// wireEndpoint converts a topology endpoint to its API form.
func wireEndpoint(e topology.Endpoint) server.EndpointRef {
	return server.EndpointRef{Kind: e.Kind.Name(), Index: e.Index}
}

// loadGen is the shared state of the load workers.
type loadGen struct {
	client *http.Client
	url    string
	mix    []server.BookRequest
	next   atomic.Int64 // round-robin cursor into mix
	// idPrefix prefixes the client-assigned request id of every request
	// ("<prefix>-<seq>"), joining server-side audit records to this run.
	idPrefix string

	reg  *obs.Registry
	hist *obs.Histogram

	accepted atomic.Int64
	rejected atomic.Int64
	shed     atomic.Int64
	draining atomic.Int64
	errors   atomic.Int64
}

// runClosed runs workers that each wait for a response before sending
// the next request — throughput is whatever the server sustains.
func (lg *loadGen) runClosed(ctx context.Context, workers, limit int) {
	var sent atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if limit > 0 && sent.Add(1) > int64(limit) {
					return
				}
				lg.sendOne(ctx)
			}
		}()
	}
	wg.Wait()
}

// runOpen paces arrivals one interval apart regardless of responses,
// capped at inflight concurrent requests (beyond the cap an arrival is
// counted as a client-side error: the server was too slow to matter).
func (lg *loadGen) runOpen(ctx context.Context, interval time.Duration, inflight, limit int) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	sent := 0
	for ctx.Err() == nil && (limit == 0 || sent < limit) {
		select {
		case <-ctx.Done():
		case <-tick.C:
			sent++
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					lg.sendOne(ctx)
				}()
			default:
				lg.errors.Add(1)
			}
		}
	}
	wg.Wait()
}

// sendOne posts the next request of the mix and classifies the outcome.
func (lg *loadGen) sendOne(ctx context.Context) {
	seq := lg.next.Add(1) - 1
	br := lg.mix[int(seq)%len(lg.mix)]
	br.RequestID = fmt.Sprintf("%s-%d", lg.idPrefix, seq)
	body, err := json.Marshal(br)
	if err != nil {
		lg.errors.Add(1)
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, lg.url, bytes.NewReader(body))
	if err != nil {
		lg.errors.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")

	start := time.Now()
	resp, err := lg.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			lg.errors.Add(1)
		}
		return
	}
	lg.hist.Observe(time.Since(start).Seconds())
	var out server.BookResponse
	decodeErr := json.NewDecoder(resp.Body).Decode(&out)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if decodeErr != nil {
		lg.errors.Add(1)
		return
	}
	switch out.Status {
	case server.StatusAccepted:
		lg.accepted.Add(1)
	case server.StatusRejected:
		lg.rejected.Add(1)
	case server.StatusOverloaded:
		lg.shed.Add(1)
	case server.StatusDraining:
		lg.draining.Add(1)
	default:
		lg.errors.Add(1)
	}
}
