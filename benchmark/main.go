// Command benchmark is the repository's performance benchmark: four
// workloads that replay the paper's request stream with pinned slots —
// two straight into sim.Engine.Admit, two through the booking server over
// loopback HTTP — six end-to-end metrics per workload, and a per-layer
// table from a separate traced run. BENCHMARK.json at the repository root
// describes it to the acceptance driver; README.md explains every number.
//
// One workload, one run (what the driver calls through run.sh):
//
//	benchmark -workload full_direct -seed 1 -seconds 15 -trace 0
//
// The whole suite, every run in a fresh child process:
//
//	benchmark [-seed 1] [-repeats 3] [-trace 1] [-out results.json]
//	benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// setupProbes is how many fresh processes time the set-up of a run; the
// run reports their median.
const setupProbes = 5

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run this one workload in this process (default: the suite, every run in a child process)")
		seed         = fs.Int64("seed", 1, "workload seed: request streams and the open-loop schedule derive from it")
		seconds      = fs.Int("seconds", defaultSeconds, "measuring time the amount of work is sized for")
		trace        = fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut     = fs.String("trace-out", "", "write the traced run's spans to this file as JSONL")
		out          = fs.String("out", "", "suite: write every run and the medians to this JSON file")
		repeats      = fs.Int("repeats", 3, "suite: runs per workload, on seeds seed..seed+repeats-1")
		selfcheck    = fs.Bool("selfcheck", false, "run the suite twice and compare the two sets against the metric bounds")
		smoke        = fs.Bool("smoke", false, "run every workload shape once at small scale, timed and traced")
		goldenUpdate = fs.Bool("update-golden", false, "recompute golden.json digests for seeds seed..seed+repeats-1")
		setupChild   = fs.Bool("setup-only", false, "internal: set up the workload, print ready, exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) || *repeats < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be 1..60, -trace 0 or 1, -repeats at least 1")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}

	switch {
	case *smoke:
		if _, err := runSmoke(stdout, *seed); err != nil {
			return fail(err)
		}
		return 0
	case *goldenUpdate:
		if err := regenerateGolden(stdout, *seed, *repeats, *seconds); err != nil {
			return fail(err)
		}
		return 0
	case *selfcheck:
		ok, err := runSelfcheck(stdout, stderr, *seed, *repeats, *seconds)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	case *workloadName == "":
		s, err := runSuite(stderr, *seed, *repeats, *seconds, *trace == 1)
		if err != nil {
			return fail(err)
		}
		s.print(stdout)
		if *out != "" {
			if err := s.write(*out); err != nil {
				return fail(err)
			}
		}
		if !s.correct() {
			return 1
		}
		return 0
	}

	spec, ok := findWorkload(*workloadName)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		return fail(fmt.Errorf("unknown workload %q (want one of %s)", *workloadName, strings.Join(names, ", ")))
	}
	if *setupChild {
		if err := setupOnly(spec, *seed, *seconds); err != nil {
			return fail(err)
		}
		return 0
	}
	res, err := runWorkload(spec, runOptions{
		Seed: *seed, Seconds: *seconds, Traced: *trace == 1, SetupProbes: setupProbes, TraceOut: *traceOut,
	})
	if err != nil {
		return fail(err)
	}
	if err := report(stdout, res); err != nil {
		return fail(err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// resultPrefix marks the line that carries the full runResult for the
// suite; the driver reads only the last line.
const resultPrefix = "#result "

// contractLine is the driver's result object: exactly these keys.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// report prints every metric by name with its unit, the gates, and — as
// the last line — the driver's JSON object.
func report(w io.Writer, res *runResult) error {
	kind := "timed"
	if res.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  %d stream(s) x %d reps  (%s run)\n", res.Workload, res.Seed, res.Seconds, res.Streams, res.Reps, kind)
	na := map[string]bool{}
	for _, name := range res.NA {
		na[name] = true
	}
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractMetric{}}
	for _, d := range metricDefs(res.Traced) {
		v := res.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			na[d.Name] = true
		}
		line.Metrics[d.Name] = contractMetric{Value: v, Unit: d.Unit}
		if na[d.Name] {
			fmt.Fprintf(w, "  %-40s %14s %s\n", d.Name, "n/a", d.Unit)
		} else {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	fmt.Fprintf(w, "attempted %d  failed %d  fail_frac %.6g\n", res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, name := range sortedKeys(res.Checks) {
		verdict := "ok"
		if !res.Checks[name] {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "check %-24s %s\n", name, verdict)
	}
	for _, sp := range res.Spans {
		fmt.Fprintf(w, "span  %-26s n %6d  mean %12.3f us  self %12.3f us\n", sp.Name, sp.Count, sp.MeanUs, sp.SelfUs)
	}
	for _, name := range sortedKeys(res.Info) {
		fmt.Fprintf(w, "info  %-24s %.6g\n", name, res.Info[name])
	}
	for _, note := range res.Notes {
		fmt.Fprintf(w, "note  %s\n", note)
	}
	if res.Noisy {
		fmt.Fprintln(w, "note  run flagged noisy")
	}
	full, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", resultPrefix, full)
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runSmoke drives every workload shape — direct prefix, direct laps,
// served closed loop, served open loop — once timed and once traced at
// small scale, in this process, and returns the eight results.
func runSmoke(w io.Writer, seed int64) ([]*runResult, error) {
	var all []*runResult
	for _, spec := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(smokeShape(spec), runOptions{Seed: seed, Seconds: defaultSeconds, Traced: traced})
			if err != nil {
				return nil, fmt.Errorf("smoke %s: %w", spec.Name, err)
			}
			if !res.Correct || res.Failed > 0 {
				return nil, fmt.Errorf("smoke %s (traced %v): %d of %d failed; %s", spec.Name, traced, res.Failed, res.Attempted, strings.Join(res.Notes, "; "))
			}
			fmt.Fprintf(w, "smoke %-22s traced=%-5v attempted %5d  ok\n", spec.Name, traced, res.Attempted)
			all = append(all, res)
		}
	}
	return all, nil
}

// lapZeroDigest computes the digest golden.json pins: the direct engine's
// decisions over the first stream.
func lapZeroDigest(spec workloadSpec, seed int64, seconds int) (digestHex string, n int, err error) {
	p := makePlan(spec, seed, seconds)
	env, err := buildEnv(spec)
	if err != nil {
		return "", 0, err
	}
	reqs, wl, err := p.genStream(env, 0)
	if err != nil {
		return "", 0, err
	}
	r := &runner{p: p, env: env, res: &runResult{Checks: map[string]bool{}}}
	out, err := r.directLap(reqs, wl, nil, nil, nil)
	if err != nil {
		return "", 0, err
	}
	return digest(out.decisions), len(reqs), nil
}

func regenerateGolden(w io.Writer, seed int64, repeats, seconds int) error {
	entries := map[string]string{}
	for _, spec := range workloads {
		for s := seed; s < seed+int64(repeats); s++ {
			d, n, err := lapZeroDigest(spec, s, seconds)
			if err != nil {
				return err
			}
			key := goldenKey(spec.Name, s, n)
			entries[key] = d
			fmt.Fprintf(w, "%s %s\n", key, d)
		}
	}
	return updateGolden(entries)
}
