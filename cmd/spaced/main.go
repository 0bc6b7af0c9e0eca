// Command spaced is the long-running booking daemon: it builds an
// experiment environment once, keeps the admission engine resident, and
// serves the online booking API over HTTP until it is told to drain.
//
// The daemon advances a slot clock at -clock-rate simulated slots per
// wall second (a paper slot is one simulated minute), admits bookings in
// arrival order through the same engine code path the batch simulator
// uses, and sheds load explicitly when the ingress queue fills. SIGINT
// or SIGTERM triggers a graceful drain: intake stops (healthz flips to
// 503), queued bookings are still decided, then the engine runs its
// final metrics sweep and the process exits.
//
// Usage:
//
//	spaced [-addr 127.0.0.1:8080] [-scale small|medium|full]
//	       [-alg CEAR|SSP|ECARS|ERU|ERA|CEAR-NE|CEAR-AA|CEAR-LIN|CEAR-AD]
//	       [-clock-rate R] [-queue-depth N] [-batch-size B]
//	       [-valuation V] [-f1 F] [-f2 F]
//	       [-trace] [-trace-sample P] [-slow-ms D] [-audit-log FILE]
//	       [-hotspot-k K] [-drain-timeout D] [-report run.json]
//
// The listener serves the telemetry beside the booking API: /metrics
// (Prometheus), /metrics.json (the registry snapshot, whole: counters,
// histograms, per-slot time series and the top-K hot-spot trackers of
// -hotspot-k entries each, 0 = off; `spacestat top` renders them live),
// /debug/pprof/ and /v1/stats (the service's own state).
//
// Tracing is off by default and free when off. Any of -trace,
// -trace-sample > 0 or -audit-log enables it: every booking then produces
// one audit record (queryable at /v1/requests/{id}/trace and
// /debug/traces.json, streamed to -audit-log as JSONL), and sampled
// records — head-sampled at -trace-sample, plus every shed, rejected,
// errored or slower-than -slow-ms request — carry the full per-phase
// timeline. The record is the decision record `spacebench run -trace`
// writes, plus the serving fields: `spacestat trace` summarises the log,
// and `spacebench run -replay` replays it in commit order (its seq) to
// the same decisions.
//
// Every option is checked before the environment is built: a usage
// error exits 2 with nothing on stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spacebooking"
	"spacebooking/internal/buildinfo"
	"spacebooking/internal/obs"
	"spacebooking/internal/pricing"
	"spacebooking/internal/server"
	"spacebooking/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spaced", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address for the booking API and debug endpoints")
	scaleName := fs.String("scale", "small", "experiment scale: small, medium or full")
	algName := fs.String("alg", "CEAR", "algorithm: CEAR, SSP, ECARS, ERU, ERA, CEAR-NE, CEAR-AA, CEAR-LIN, CEAR-AD")
	clockRate := fs.Float64("clock-rate", 1, "simulated slots per wall second (0 = as fast as requests arrive)")
	queueDepth := fs.Int("queue-depth", 256, "ingress queue bound; a full queue sheds with 'overloaded'")
	batchSize := fs.Int("batch-size", 32, "max queued bookings admitted per engine pass")
	valuation := fs.Float64("valuation", 0, "default request valuation ρ (0 = scale default)")
	f1 := fs.Float64("f1", 1, "bandwidth conservativeness parameter F1")
	f2 := fs.Float64("f2", 1, "energy conservativeness parameter F2")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to drain queued bookings on shutdown")
	reportFile := fs.String("report", "", "write a machine-readable JSON run report after the drain")
	traceOn := fs.Bool("trace", false, "enable request tracing even with no sampling and no audit log")
	traceSample := fs.Float64("trace-sample", 0, "head-sampling probability [0,1] for full phase timelines (also enables tracing)")
	slowMs := fs.Float64("slow-ms", 25, "latency SLO objective in milliseconds (> 0); slower traced requests are always sampled")
	auditLog := fs.String("audit-log", "", "stream one decision record per booking to this file, replayable with spacebench run -replay (also enables tracing)")
	hotspotK := fs.Int("hotspot-k", 32, "entries per hot-spot tracker (links, batteries, source cells) in /metrics.json; 0 turns tracking off")
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, buildinfo.Line("spaced"))
		return 0
	}

	usage := func(err error) int {
		fmt.Fprintf(stderr, "spaced: %v\n", err)
		fs.Usage()
		return 2
	}
	slowNs := *slowMs * float64(time.Millisecond)
	switch {
	case fs.NArg() > 0:
		return usage(fmt.Errorf("unexpected arguments %q", fs.Args()))
	case !(*traceSample >= 0 && *traceSample <= 1):
		return usage(fmt.Errorf("-trace-sample %g outside [0,1]", *traceSample))
	case !(slowNs >= 1 && slowNs < math.MaxInt64):
		return usage(fmt.Errorf("-slow-ms %g must be a finite duration of at least 1ns", *slowMs))
	case *hotspotK < 0:
		return usage(fmt.Errorf("-hotspot-k %d must not be negative (0 turns tracking off)", *hotspotK))
	case *queueDepth < 0 || *batchSize < 0:
		return usage(fmt.Errorf("-queue-depth %d and -batch-size %d must not be negative", *queueDepth, *batchSize))
	case !(*valuation >= 0):
		return usage(fmt.Errorf("-valuation %g must not be negative (0 = scale default)", *valuation))
	}
	params, err := pricing.Derive(*f1, *f2, 20, 10)
	if err != nil {
		return usage(err)
	}
	scale, err := spacebooking.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	alg, err := sim.ParseAlgorithm(*algName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// A daemon is always observed: the registry feeds /metrics,
	// /metrics.json and the shutdown report.
	reg := obs.New()

	fmt.Fprintf(stdout, "building %s environment...\n", scale)
	env, err := spacebooking.NewEnvironment(spacebooking.EnvConfig{Scale: scale})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *valuation == 0 {
		*valuation = env.DefaultValuation()
	}
	wl := env.WorkloadConfig(env.DefaultArrivalRate(), 101)
	wl.Valuation = *valuation
	rc, err := env.RunConfig(alg, wl)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rc.Obs = reg
	rc.HotspotK = *hotspotK
	rc.Pricing = params

	srv, err := server.New(server.Config{
		Provider:   env.Provider,
		Run:        rc,
		ClockRate:  *clockRate,
		QueueDepth: *queueDepth,
		BatchSize:  *batchSize,
		Trace: server.TraceConfig{
			Enabled:    *traceOn,
			SampleRate: *traceSample,
			AuditPath:  *auditLog,
		},
		SLO: server.SLOConfig{LatencyObjective: time.Duration(slowNs)},
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// One listener carries the booking API and the obs debug surface
	// (/debug/pprof/, /metrics, /metrics.json).
	mux := obs.NewDebugMux(reg)
	srv.Register(mux)
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// A client gets seconds to send a request (a booking is < 1 KiB) and
	// a kept-alive connection two idle minutes. The write timeout is the
	// loose one: this listener also serves /debug/pprof/profile, whose
	// default 30 s capture has to fit inside it.
	httpSrv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      90 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(lis) }()

	clockDesc := "as fast as requests arrive"
	if *clockRate > 0 {
		clockDesc = fmt.Sprintf("%.3g slots/s", *clockRate)
	}
	fmt.Fprintf(stdout, "spaced listening on http://%s/\n", lis.Addr())
	fmt.Fprintf(stdout, "  algorithm   %s\n", srv.Algorithm())
	fmt.Fprintf(stdout, "  scale       %s (%d satellites, horizon %d slots)\n", scale, env.Provider.NumSats(), srv.Horizon())
	fmt.Fprintf(stdout, "  slot clock  %s\n", clockDesc)
	fmt.Fprintf(stdout, "  ingress     queue %d, batch %d\n", *queueDepth, *batchSize)
	if *traceOn || *traceSample > 0 || *auditLog != "" {
		auditDesc := "in-memory only"
		if *auditLog != "" {
			auditDesc = *auditLog
		}
		fmt.Fprintf(stdout, "  tracing     sample %.3g, slow %.3gms, audit %s\n", *traceSample, *slowMs, auditDesc)
	}
	if *hotspotK > 0 {
		fmt.Fprintf(stdout, "  hotspots    top-%d trackers in /metrics.json, live view: spacestat top\n", *hotspotK)
	}
	fmt.Fprintln(stdout, "send SIGINT or SIGTERM to drain and stop")

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "spaced: http server: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	fmt.Fprintf(stdout, "draining (up to %v)...\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)
	// The engine is drained (or timed out); now stop taking connections.
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	_ = httpSrv.Shutdown(httpCtx)
	if drainErr != nil {
		fmt.Fprintf(stderr, "spaced: %v\n", drainErr)
		return 1
	}

	res, err := srv.Result()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	st := srv.StatsSnapshot()
	fmt.Fprintf(stdout, "drained: %d bookings (%d accepted, %d rejected, %d shed), revenue %.4g, welfare ratio %.4f\n",
		st.Total, st.Accepted, st.Rejected, st.Shed, res.Revenue, res.WelfareRatio)
	server.SummarizeHotspots(reg.Snapshot().TopK, stdout)

	if *reportFile != "" {
		rep := obs.NewReport("spaced")
		rep.SetConfig("scale", scale.String())
		rep.SetConfig("algorithm", srv.Algorithm())
		rep.SetConfig("clock_rate", *clockRate)
		rep.SetConfig("queue_depth", *queueDepth)
		rep.SetConfig("batch_size", *batchSize)
		rep.SetConfig("valuation", *valuation)
		rep.SetConfig("horizon_slots", srv.Horizon())
		rep.SetConfig("trace_sample", *traceSample)
		rep.SetConfig("slow_ms", *slowMs)
		rep.SetConfig("audit_log", *auditLog)
		rep.SetConfig("hotspot_k", *hotspotK)
		rep.SetMetric("requests_total", float64(st.Total))
		rep.SetMetric("requests_accepted", float64(st.Accepted))
		rep.SetMetric("requests_rejected", float64(st.Rejected))
		rep.SetMetric("requests_shed", float64(st.Shed))
		rep.SetMetric("queue_high_water", float64(st.QueueHighWater))
		rep.SetMetric("revenue", res.Revenue)
		rep.SetMetric("welfare_ratio", res.WelfareRatio)
		if st.Trace != nil {
			rep.SetMetric("trace_records", float64(st.Trace.Records))
			rep.SetMetric("trace_sampled", float64(st.Trace.Sampled))
			rep.SetMetric("trace_dropped", float64(st.Trace.Dropped))
		}
		rep.SetSLO(srv.SLOSnapshots())
		rep.Finish(reg)
		if err := obs.WriteReportFile(*reportFile, rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "report written to %s\n", *reportFile)
	}
	return 0
}
