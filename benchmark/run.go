package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"spacebooking"
	"spacebooking/internal/obs"
	"spacebooking/internal/server"
	"spacebooking/internal/sim"
	"spacebooking/internal/workload"
)

// runOptions configures one run of one workload in this process.
type runOptions struct {
	Seed    int64
	Seconds int
	Traced  bool
	// SetupProbes is how many fresh child processes time the set-up; the
	// median is setup_s. Zero times this process's own set-up instead
	// (unit tests, where re-executing the binary is not possible).
	SetupProbes int
	TraceOut    string
}

// runResult is one run's outcome. The driver reads Correct, Attempted,
// Failed and Metrics; the rest feeds the suite and the human report.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// NA lists per-layer metrics reported as 0 because they do not apply
	// to this workload or the program no longer publishes their source.
	NA []string `json:"na,omitempty"`
	// Checks are the correctness gates and validity checks by name.
	Checks map[string]bool `json:"checks"`
	// Info carries diagnostics that are not gated metrics.
	Info   map[string]float64 `json:"info"`
	Noisy  bool               `json:"noisy"`
	Digest string             `json:"digest"`
	// Streams distinct request streams were each replayed Reps times.
	Streams int      `json:"streams"`
	Reps    int      `json:"reps"`
	Notes   []string `json:"notes,omitempty"`
	// Spans summarises a traced run's spans by name.
	Spans []spanStat `json:"spans,omitempty"`
}

// runner carries one run's state.
type runner struct {
	p     plan
	epoch time.Time
	spans *spanLog // nil unless traced
	root  int
	res   *runResult

	env     *spacebooking.Environment
	streams [][]workload.Request
	cfgs    []workload.Config

	layers layerSet
}

func (r *runner) sinceEpoch() int64 { return time.Since(r.epoch).Nanoseconds() }

func (r *runner) check(name string, ok bool, format string, args ...any) {
	if prev, seen := r.res.Checks[name]; seen && !prev {
		ok = false
	}
	r.res.Checks[name] = ok
	if !ok {
		r.res.Notes = append(r.res.Notes, name+": "+fmt.Sprintf(format, args...))
	}
}

// setup is the work before the first request can be sent: environment,
// the first stream, and the first engine (direct) or booking server behind
// its listener (served). It is what setup_s times.
type setupOut struct {
	env    *spacebooking.Environment
	reqs   []workload.Request
	wl     workload.Config
	eng    *sim.Engine
	h      *harness
	srv    *server.Server
	envNs  int64
	genNs  int64
	frontN int64 // engine build, or server.New plus listener
}

func doSetup(p plan) (*setupOut, error) {
	out := &setupOut{}
	t0 := time.Now()
	env, err := buildEnv(p.spec)
	if err != nil {
		return nil, err
	}
	out.env, out.envNs = env, time.Since(t0).Nanoseconds()
	t0 = time.Now()
	if out.reqs, out.wl, err = p.genStream(env, 0); err != nil {
		return nil, err
	}
	out.genNs = time.Since(t0).Nanoseconds()
	rc, err := cearConfig(out.wl, nil)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	if p.spec.Mode == modeDirect {
		if out.eng, err = sim.NewEngine(env.Provider, rc); err != nil {
			return nil, err
		}
	} else {
		if out.h, err = newHarness(); err != nil {
			return nil, err
		}
		if out.srv, err = out.h.attach(server.Config{Provider: env.Provider, Run: rc, Shards: 1}); err != nil {
			out.h.close()
			return nil, err
		}
	}
	out.frontN = time.Since(t0).Nanoseconds()
	return out, nil
}

// setupOnly is the body of a -setup-only child: set up, say so, leave.
// The parent times it from process start to the "ready" line.
func setupOnly(spec workloadSpec, seed int64, seconds int) error {
	out, err := doSetup(makePlan(spec, seed, seconds))
	if err != nil {
		return err
	}
	fmt.Println("ready")
	if out.h == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := out.srv.Shutdown(ctx); err != nil {
		return err
	}
	return out.h.close()
}

// probeSetup times the set-up in n fresh child processes, one after the
// other, from just before the process starts until it reports ready.
func probeSetup(spec workloadSpec, opts runOptions) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("setup probe: %w", err)
	}
	var out []float64
	for i := 0; i < opts.SetupProbes; i++ {
		cmd := exec.Command(exe, "-setup-only", "-workload", spec.Name,
			"-seed", strconv.FormatInt(opts.Seed, 10), "-seconds", strconv.Itoa(opts.Seconds))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		ready := false
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if !ready && strings.TrimSpace(sc.Text()) == "ready" {
				out = append(out, time.Since(t0).Seconds())
				ready = true
			}
		}
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		if !ready {
			return nil, fmt.Errorf("setup probe: child never reported ready")
		}
	}
	return out, nil
}

// runWorkload performs one run of one workload: timed (end-to-end
// metrics) or traced (per-layer metrics).
func runWorkload(spec workloadSpec, opts runOptions) (*runResult, error) {
	r := &runner{
		p:     makePlan(spec, opts.Seed, opts.Seconds),
		epoch: time.Now(),
		res: &runResult{
			Workload: spec.Name, Seed: opts.Seed, Seconds: opts.Seconds, Traced: opts.Traced,
			Metrics: map[string]float64{}, Checks: map[string]bool{}, Info: map[string]float64{},
		},
		layers: layerSet{},
	}
	r.res.Streams, r.res.Reps = spec.Streams, r.p.reps
	if opts.Traced {
		r.res.Reps = tracedReps
	}
	calibBefore := calibrateMs()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var setupS []float64
	if !opts.Traced && opts.SetupProbes > 0 {
		var err error
		if setupS, err = probeSetup(spec, opts); err != nil {
			return nil, err
		}
	}
	setupStart := r.sinceEpoch()
	su, err := doSetup(r.p)
	if err != nil {
		return nil, err
	}
	setupEnd := r.sinceEpoch()
	if su.h != nil {
		defer su.h.close()
	}
	if len(setupS) == 0 {
		setupS = []float64{float64(setupEnd-setupStart) / 1e9}
	}
	r.env = su.env
	r.streams = [][]workload.Request{su.reqs}
	r.cfgs = []workload.Config{su.wl}
	for i := 1; i < spec.Streams; i++ {
		reqs, wl, err := r.p.genStream(r.env, i)
		if err != nil {
			return nil, err
		}
		r.streams = append(r.streams, reqs)
		r.cfgs = append(r.cfgs, wl)
	}
	if opts.Traced {
		r.spans = &spanLog{}
		r.root = r.spans.add(-1, "run", -1, 0, 0)
		sp := r.spans.add(r.root, "setup", -1, setupStart, setupEnd)
		at := setupStart
		for _, part := range []struct {
			name string
			ns   int64
		}{{"topology.new_environment", su.envNs}, {"workload.generate", su.genNs}, {"front.build", su.frontN}} {
			r.spans.add(sp, part.name, -1, at, at+part.ns)
			at += part.ns
		}
		r.layers["topology.new_environment_ms"] = float64(su.envNs) / 1e6
		r.layers["workload.generate_us_per_req"] = float64(su.genNs) / 1e3 / float64(len(su.reqs))
		if su.eng != nil {
			r.layers["sim.engine_build_ms"] = float64(su.frontN) / 1e6
		} else {
			r.layers["server.new_ms"] = float64(su.frontN) / 1e6
		}
	}

	switch {
	case opts.Traced:
		err = r.traced(su)
	case spec.Mode == modeDirect:
		err = r.timedDirect(su)
	default:
		err = r.timedServed(su)
	}
	if err != nil {
		return nil, err
	}

	calibAfter := calibrateMs()
	r.res.Info["calib_ms_before"], r.res.Info["calib_ms_after"] = calibBefore, calibAfter
	if d := calibAfter/calibBefore - 1; d > noisyCalibFrac || d < -noisyCalibFrac {
		r.res.Noisy = true
		r.res.Notes = append(r.res.Notes, fmt.Sprintf("noisy: calibration kernel %.2f ms before, %.2f ms after", calibBefore, calibAfter))
	}
	if opts.Traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.layers["host.calib_ms_before"] = calibBefore
		r.layers["host.calib_ms_after"] = calibAfter
		r.layers["host.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		r.layers["host.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		r.layers["host.nproc"] = float64(runtime.NumCPU())
		r.layers["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		for _, d := range perLayer {
			v, ok := r.layers[d.Name]
			if !ok {
				r.res.NA = append(r.res.NA, d.Name)
			}
			r.res.Metrics[d.Name] = v
		}
		r.spans.spans[r.root].EndNs = r.sinceEpoch()
		r.res.Spans = r.spans.summary()
		if opts.TraceOut != "" {
			if err := r.spans.writeJSONL(opts.TraceOut); err != nil {
				return nil, err
			}
		}
	} else {
		r.res.Metrics["setup_s"] = median(setupS)
		r.res.Metrics["mem_peak_mb"] = peakRSSMB()
	}

	r.res.Correct = true
	for _, ok := range r.res.Checks {
		if !ok {
			r.res.Correct = false
		}
	}
	if !r.res.Correct {
		// A failed gate voids every decision of the run.
		r.res.Failed = r.res.Attempted
	}
	return r.res, nil
}

// best folds the identical repetitions of one stream into the time the
// code, not the host, decided: per request the fastest decision, per lap
// the shortest request phase and the least CPU.
type best struct {
	latNs  []int64
	wallNs int64
	cpuS   float64
	laps   int
}

func (b *best) fold(latNs []int64, wallNs int64, cpuS float64) {
	if b.laps == 0 {
		b.latNs = append([]int64(nil), latNs...)
		b.wallNs, b.cpuS = wallNs, cpuS
	} else {
		for i, v := range latNs {
			if v < b.latNs[i] {
				b.latNs[i] = v
			}
		}
		b.wallNs = min(b.wallNs, wallNs)
		b.cpuS = min(b.cpuS, cpuS)
	}
	b.laps++
}

func (b *best) sumLatNs() int64 {
	var sum int64
	for _, v := range b.latNs {
		sum += v
	}
	return sum
}

// directLapOut is one pass of a stream through sim.Engine.Admit.
type directLapOut struct {
	decisions []decision
	durNs     []int64
	wallNs    int64
	cpuS      float64
	buildNs   int64
	finishNs  int64
	res       *sim.Result
	startNs   int64 // request phase start, ns since the run's epoch
}

// directLap admits reqs in arrival order from this goroutine, timing
// every Admit call. eng is built here unless the caller brings one (its
// build time then belongs to set-up). beforeFinish, when non-nil, runs on
// the warmed engine between the last admission and Finish.
func (r *runner) directLap(reqs []workload.Request, wl workload.Config, reg *obs.Registry, eng *sim.Engine, beforeFinish func(*sim.Engine)) (*directLapOut, error) {
	out := &directLapOut{decisions: make([]decision, len(reqs)), durNs: make([]int64, len(reqs))}
	if eng == nil {
		rc, err := cearConfig(wl, reg)
		if err != nil {
			return nil, err
		}
		// Collect the previous lap's engine first, so that every lap starts
		// from the same heap and peak memory does not hang on GC timing.
		runtime.GC()
		t0 := time.Now()
		if eng, err = sim.NewEngine(r.env.Provider, rc); err != nil {
			return nil, err
		}
		out.buildNs = time.Since(t0).Nanoseconds()
	}
	if reg != nil {
		eng.EnableTraceDetail()
	}
	cpu0 := cpuSeconds()
	lapStart := time.Now()
	out.startNs = lapStart.Sub(r.epoch).Nanoseconds()
	for i := range reqs {
		t0 := time.Now()
		d, err := eng.Admit(reqs[i])
		out.durNs[i] = time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("%s: admit request %d: %w", r.p.spec.Name, i, err)
		}
		out.decisions[i] = decisionOf(d)
	}
	out.wallNs = time.Since(lapStart).Nanoseconds()
	out.cpuS = cpuSeconds() - cpu0

	if beforeFinish != nil {
		beforeFinish(eng)
	}
	r.check("prepared_drained", eng.State().CheckPreparedDrained() == nil, "prepare ledger not drained")
	t0 := time.Now()
	res, err := eng.Finish()
	if err != nil {
		return nil, err
	}
	out.finishNs, out.res = time.Since(t0).Nanoseconds(), res
	r.checkConservation(res, len(reqs), 0)
	return out, nil
}

// checkConservation is the per-lap gate Accepted + ΣRejections ==
// TotalRequests == requests the engine was shown.
func (r *runner) checkConservation(res *sim.Result, sent, settledByServer int) {
	rejected := 0
	for _, n := range res.Rejections {
		rejected += n
	}
	ok := res.Accepted+rejected == res.TotalRequests && res.TotalRequests == sent-settledByServer
	r.check("conservation", ok, "accepted %d + rejected %d, total %d, sent %d (%d settled by the serving layer)",
		res.Accepted, rejected, res.TotalRequests, sent, settledByServer)
}

// checkGolden compares the first stream's digest with the committed one,
// when the (workload, seed, length, GOARCH) has an entry.
func (r *runner) checkGolden(n int) {
	golden, err := loadGolden()
	if err != nil {
		r.check("golden", false, "%v", err)
		return
	}
	key := goldenKey(r.p.spec.Name, r.p.seed, n)
	r.res.Info["golden_checked"] = 0
	if want, ok := golden[key]; ok {
		r.res.Info["golden_checked"] = 1
		r.check("golden", want == r.res.Digest, "%s: digest %s, golden %s", key, r.res.Digest, want)
	}
}

// timedTotals accumulates the streams of a timed run: n distinct
// requests whose best request phases sum to wallNs and best CPU to cpuS,
// with latNs their best decision latencies.
type timedTotals struct {
	n       int
	wallNs  int64
	cpuS    float64
	latNs   []int64
	welfare []float64
}

// addStream folds in one stream's best-of-reps, whose best request phase
// took wallNs.
func (t *timedTotals) addStream(b *best, wallNs int64) {
	t.n += len(b.latNs)
	t.wallNs += wallNs
	t.cpuS += b.cpuS
	t.latNs = append(t.latNs, b.latNs...)
}

// finishTimed turns the totals into the end-to-end metrics.
func (r *runner) finishTimed(t *timedTotals) {
	ms := nsToSortedMs(t.latNs)
	r.res.Metrics["req_per_s"] = float64(t.n) / (float64(t.wallNs) / 1e9)
	r.res.Metrics["lat_ms_p50"] = percentile(ms, 50)
	r.res.Metrics["welfare_ratio"] = mean(t.welfare)
	r.res.Metrics["cpu_ms_per_req"] = t.cpuS * 1e3 / float64(t.n)
	r.res.Info["lat_samples"] = float64(len(ms))
	r.res.Info["lat_ms_p95"] = percentile(ms, 95)
	r.res.Info["lat_ms_p99"] = percentile(ms, 99)
	if v, pct, ok := pmax10(ms); ok {
		r.res.Info["lat_ms_pmax10"], r.res.Info["pmax10_pct"] = v, pct
	}
}

// timedDirect replays every stream reps times, each lap on a fresh
// engine with tracing off and Obs nil. Every repetition must repeat the
// first one's decisions; the first lap doubles as the warm-up, since a
// request keeps its fastest repetition.
func (r *runner) timedDirect(su *setupOut) error {
	var t timedTotals
	accepted := 0
	for s, reqs := range r.streams {
		var b best
		first := ""
		for k := 0; k < r.p.reps; k++ {
			eng := su.eng
			if s > 0 || k > 0 {
				eng = nil
			}
			out, err := r.directLap(reqs, r.cfgs[s], nil, eng, nil)
			if err != nil {
				return err
			}
			d := digest(out.decisions)
			if k == 0 {
				first = d
				t.welfare = append(t.welfare, out.res.WelfareRatio)
				accepted += out.res.Accepted
				if s == 0 {
					r.res.Digest = d
					r.checkGolden(len(reqs))
				}
			} else {
				r.check("deterministic", d == first, "stream %d: repetition %d did not repeat the first lap's decisions", s, k)
			}
			b.fold(out.durNs, out.wallNs, out.cpuS)
			r.res.Attempted += len(reqs)
		}
		// Admissions run back to back on one goroutine, so the best lap is
		// the sum of the best admissions.
		t.addStream(&b, b.sumLatNs())
	}
	r.res.Info["accept_frac"] = float64(accepted) / float64(t.n)
	r.finishTimed(&t)
	return nil
}

// tallyServed checks one served lap and returns its decision latencies
// and how many requests failed and were accepted.
func (r *runner) tallyServed(out *servedLapOut, open bool) (latNs []int64, failed, accepted int) {
	latNs = make([]int64, len(out.samples))
	settledByServer := 0
	for i := range out.samples {
		s := &out.samples[i]
		switch {
		case s.fail != "":
			failed++
			if failed == 1 {
				r.res.Notes = append(r.res.Notes, fmt.Sprintf("request %s-%d failed: %s", out.idPrefix, i, s.fail))
			}
		case s.dec.Reason == server.ReasonExpired || s.dec.Reason == server.ReasonHorizonExhausted:
			settledByServer++
		case s.dec.Accepted:
			accepted++
		}
		latNs[i] = s.latencyNs(open)
	}
	r.checkConservation(out.res, len(out.samples)-failed, settledByServer)
	return latNs, failed, accepted
}

// servedLap is one lap of a stream on a fresh booking server, two
// connections, on the workload's schedule. newNs is what server.New took.
func (r *runner) servedLap(h *harness, stream int, reg *obs.Registry, trace server.TraceConfig, idPrefix string) (out *servedLapOut, newNs int64, err error) {
	rc, err := cearConfig(r.cfgs[stream], reg)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC() // as in directLap
	t0 := time.Now()
	srv, err := h.attach(server.Config{Provider: r.env.Provider, Run: rc, Shards: 1, Trace: trace})
	if err != nil {
		return nil, 0, err
	}
	newNs = time.Since(t0).Nanoseconds()
	var due []int64
	if r.p.spec.Mode == modeServedOpen {
		due = poissonSchedule(len(r.streams[stream]), r.p.spec.OpenRate, r.p.seed+int64(stream))
	}
	out, err = h.lap(srv, r.streams[stream], servedConns, due, idPrefix, r.epoch)
	return out, newNs, err
}

// sloObjectiveMs is the server's default latency objective.
const sloObjectiveMs = 25

// timedServed: the direct engine's decisions for the first stream as the
// reference, one untimed single-connection lap on set-up's server that
// must reproduce them exactly (and warms the path), then reps laps of
// every stream on fresh servers with tracing off and Obs nil.
func (r *runner) timedServed(su *setupOut) error {
	open := r.p.spec.Mode == modeServedOpen
	ref, err := r.directLap(r.streams[0], r.cfgs[0], nil, nil, nil)
	if err != nil {
		return err
	}
	r.res.Digest = digest(ref.decisions)
	r.checkGolden(len(r.streams[0]))

	gate, err := su.h.lap(su.srv, r.streams[0], 1, nil, "gate", r.epoch)
	if err != nil {
		return err
	}
	_, gateFailed, _ := r.tallyServed(gate, false)
	served := make([]decision, len(gate.samples))
	for i, s := range gate.samples {
		served[i] = s.dec
	}
	r.check("served_equals_direct", gateFailed == 0 && digest(served) == r.res.Digest,
		"one connection through the server did not reproduce the direct engine's decisions")
	r.res.Failed = gateFailed

	var t timedTotals
	var late []float64
	accepted := 0
	backlogOK := true
	for s, reqs := range r.streams {
		var b best
		for k := 0; k < r.p.reps; k++ {
			out, _, err := r.servedLap(su.h, s, nil, server.TraceConfig{}, fmt.Sprintf("S%dR%d", s, k))
			if err != nil {
				return err
			}
			lat, failed, acc := r.tallyServed(out, open)
			b.fold(lat, out.wallNs, out.cpuS)
			r.res.Attempted += len(reqs)
			r.res.Failed += failed
			accepted += acc
			t.welfare = append(t.welfare, out.res.WelfareRatio)
			if open {
				last := out.samples[len(out.samples)-1]
				if drainMs := float64(out.wallNs-last.dueNs) / 1e6; drainMs > sloObjectiveMs {
					backlogOK = false
				}
				late = append(late, out.lateMs()...)
			}
		}
		t.addStream(&b, b.wallNs)
	}
	r.res.Info["accept_frac"] = float64(accepted) / float64(r.res.Attempted)
	r.finishTimed(&t)
	if open {
		sort.Float64s(late)
		r.res.Info["late_ms_p95"] = percentile(late, 95)
		r.res.Info["late_ok"] = b2f(percentile(late, 95) <= 1)
		r.res.Info["slo_met"] = b2f(r.res.Info["lat_ms_p95"] <= sloObjectiveMs && backlogOK)
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// tracedReps is how many times a traced run repeats each of its two
// passes (tracing off, tracing on) over a stream; the overhead compares
// the best of each.
const tracedReps = 2

// traced produces the layer table. Every workload gets traced direct
// laps (registry, PR 6 sub-phase timers, kernel probes) for the engine
// layers; served workloads add traced served laps whose audit phases give
// the serving layers. Each traced lap alternates with an untraced one of
// the same work, and the difference is the tracing overhead.
func (r *runner) traced(su *setupOut) error {
	reqs, wl := r.streams[0], r.cfgs[0]
	served := r.p.spec.Mode != modeDirect
	rc, err := cearConfig(wl, nil)
	if err != nil {
		return err
	}
	n := len(reqs)
	l := r.layers
	var plain, traced best
	var det *directLapOut
	var ctr counters
	var ms0, ms1 runtime.MemStats
	for k := 0; k < tracedReps; k++ {
		out, err := r.directLap(reqs, wl, nil, nil, nil)
		if err != nil {
			return err
		}
		plain.fold(out.durNs, out.wallNs, out.cpuS)
		reg := obs.New()
		runtime.ReadMemStats(&ms0)
		det, err = r.directLap(reqs, wl, reg, nil, func(eng *sim.Engine) {
			runtime.ReadMemStats(&ms1)
			ctr = readCounters(reg)
			if k == tracedReps-1 {
				kernelProbes(l, eng.State(), r.env.Pairs, rc.Pricing, r.p.seed)
			}
		})
		if err != nil {
			return err
		}
		traced.fold(det.durNs, det.wallNs, det.cpuS)
		r.check("traced_equals_untraced", digest(det.decisions) == digest(out.decisions), "tracing changed the decisions")
		r.res.Attempted += 2 * n
	}
	r.res.Digest = digest(det.decisions)

	// Spans and layer means come from the last traced lap.
	lap := r.spans.add(r.root, "lap.direct", -1, det.startNs, det.startNs+det.wallNs)
	var sumNs, accNs, rejNs int64
	accepted := 0
	at := det.startNs
	for i, d := range det.durNs {
		r.spans.add(lap, "sim.admit", i, at, at+d)
		at += d
		sumNs += d
		if det.decisions[i].Accepted {
			accNs += d
			accepted++
		} else {
			rejNs += d
		}
	}
	admitUs := float64(sumNs) / 1e3 / float64(n)
	l["sim.admit_us"] = admitUs
	if accepted > 0 {
		l["sim.admit_us_accepted"] = float64(accNs) / 1e3 / float64(accepted)
	}
	if accepted < n {
		l["sim.admit_us_rejected"] = float64(rejNs) / 1e3 / float64(n-accepted)
	}
	if s := ctr["core.slot_searches"]; s > 0 {
		l["sim.admit_us_per_slot"] = float64(sumNs) / 1e3 / float64(s)
	}
	if _, ok := l["sim.engine_build_ms"]; !ok {
		l["sim.engine_build_ms"] = float64(det.buildNs) / 1e6
	}
	l["sim.finish_ms"] = float64(det.finishNs) / 1e6
	l["sim.allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	l["sim.bytes_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
	slots := reqs[n-1].ArrivalSlot - reqs[0].ArrivalSlot + 1
	l["sim.wall_ms_per_slot"] = float64(det.wallNs) / 1e6 / float64(slots)
	engineLayers(l, ctr, n, accepted, admitUs)
	r.res.Info["accept_frac"] = float64(accepted) / float64(n)
	if served {
		return r.tracedServed(su)
	}
	l["obs.trace_overhead_frac"] = float64(traced.sumLatNs()-plain.sumLatNs()) / float64(plain.sumLatNs())
	l.tail(det.durNs)
	return nil
}

// tracedServed alternates untraced and traced laps of every stream and
// reads the traced laps' audit phases.
func (r *runner) tracedServed(su *setupOut) error {
	open := r.p.spec.Mode == modeServedOpen
	l := r.layers
	dir, err := os.MkdirTemp("", "spaceperf-audit-")
	if err != nil {
		return fmt.Errorf("audit dir: %w", err)
	}
	defer os.RemoveAll(dir)
	auditPath := filepath.Join(dir, "audit.jsonl")

	// One untimed single-connection lap warms the served path and retires
	// set-up's server.
	if _, err := su.h.lap(su.srv, r.streams[0], 1, nil, "warm", r.epoch); err != nil {
		return err
	}

	var (
		plainWall, tracedWall, plainLat, tracedLat int64
		n, joined, laps                            int
		encNs, decNs, rttNs, newNs, shutNs         int64
		mallocs                                    uint64
		batches, highWater, shed                   float64
		lat                                        []int64
		late                                       []float64
		phaseNs                                    = map[string]int64{}
	)
	for s, reqs := range r.streams {
		var plain, traced best
		for k := 0; k < tracedReps; k++ {
			out, _, err := r.servedLap(su.h, s, nil, server.TraceConfig{}, fmt.Sprintf("U%dR%d", s, k))
			if err != nil {
				return err
			}
			plat, failed, _ := r.tallyServed(out, open)
			plain.fold(plat, out.wallNs, out.cpuS)
			r.res.Attempted += len(reqs)
			r.res.Failed += failed

			reg := obs.New()
			prefix := fmt.Sprintf("T%dR%d", s, k)
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			out, lapNewNs, err := r.servedLap(su.h, s, reg, server.TraceConfig{SampleRate: 1, AuditPath: auditPath}, prefix)
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&ms1)
			tlat, failed, _ := r.tallyServed(out, open)
			traced.fold(tlat, out.wallNs, out.cpuS)
			r.res.Attempted += len(reqs)
			r.res.Failed += failed

			n += len(reqs)
			laps++
			newNs += lapNewNs
			shutNs += out.shutdownNs
			mallocs += ms1.Mallocs - ms0.Mallocs
			lat = append(lat, tlat...)
			highWater = max(highWater, float64(out.stats.QueueHighWater))
			shed += float64(out.stats.Shed)
			batches += float64(readCounters(reg)["server.batches"])
			audit, err := readAudit(auditPath)
			if err != nil {
				return err
			}
			lapSpan := r.spans.add(r.root, "lap.served", -1, out.epochNs, out.epochNs+out.wallNs)
			if open {
				late = append(late, out.lateMs()...)
			}
			for i, smp := range out.samples {
				if smp.fail != "" {
					continue
				}
				e := out.epochNs
				req := r.spans.add(lapSpan, "request", i, e+smp.encStartNs, e+smp.decEndNs)
				r.spans.add(req, "loadgen.encode", i, e+smp.encStartNs, e+smp.sendNs)
				rt := r.spans.add(req, "nethttp.roundtrip", i, e+smp.sendNs, e+smp.recvNs)
				r.spans.add(req, "loadgen.decode", i, e+smp.recvNs, e+smp.decEndNs)
				encNs += smp.sendNs - smp.encStartNs
				decNs += smp.decEndNs - smp.recvNs
				rec := audit[fmt.Sprintf("%s-%d", prefix, i)]
				if rec == nil {
					continue
				}
				joined++
				rttNs += smp.recvNs - smp.sendNs
				// Audit phases are relative to the wall time the request
				// entered the server; move them onto the run's clock.
				base := rec.TSUnixNs - r.epoch.UnixNano()
				admit := -1
				for _, ph := range rec.Phases {
					if _, top := topPhases[ph.Name]; top {
						id := r.spans.add(rt, ph.Name, i, base+ph.StartNs, base+ph.EndNs)
						if ph.Name == server.PhaseEngineAdmit {
							admit = id
						}
						phaseNs[ph.Name] += ph.DurNs()
					}
				}
				for _, ph := range rec.Phases {
					if _, top := topPhases[ph.Name]; !top && admit >= 0 {
						r.spans.add(admit, ph.Name, i, base+ph.StartNs, base+ph.EndNs)
					}
				}
			}
		}
		plainWall += plain.wallNs
		tracedWall += traced.wallNs
		plainLat += plain.sumLatNs()
		tracedLat += traced.sumLatNs()
	}

	nf := float64(n)
	l["loadgen.encode_us"] = float64(encNs) / 1e3 / nf
	l["loadgen.decode_us"] = float64(decNs) / 1e3 / nf
	l.tail(lat)
	if open {
		sort.Float64s(late)
		l["loadgen.late_ms_p95"] = percentile(late, 95)
	}
	if joined > 0 {
		jf := float64(joined)
		var phases int64
		for name, metric := range topPhases {
			l[metric] = float64(phaseNs[name]) / 1e3 / jf
			phases += phaseNs[name]
		}
		l["nethttp.residual_us"] = float64(rttNs-phases) / 1e3 / jf
		r.res.Info["rtt_us_joined"] = float64(rttNs) / 1e3 / jf
		r.check("residual_nonnegative", rttNs >= phases, "server phases exceed the client round trip")
	}
	r.res.Info["audit_joined_frac"] = float64(joined) / nf
	if batches > 0 {
		l["server.batch_size_mean"] = nf / batches
	}
	l["server.queue_high_water"] = highWater
	l["server.shed_count"] = shed
	// Set-up's server.New is the cold one; the laps' are warm.
	l["server.new_ms"] = float64(newNs) / 1e6 / float64(laps)
	l["server.shutdown_ms"] = float64(shutNs) / 1e6 / float64(laps)
	l["server.allocs_per_req"] = float64(mallocs) / nf
	if open {
		// Offered load is fixed, so wall time per request cannot move;
		// the latency from due time can.
		l["obs.trace_overhead_frac"] = float64(tracedLat-plainLat) / float64(plainLat)
	} else {
		l["obs.trace_overhead_frac"] = float64(tracedWall-plainWall) / float64(plainWall)
	}
	return nil
}
