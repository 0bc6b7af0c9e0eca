package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile(single) = %v, want 7", got)
	}
}

func TestPmax10NeedsTenSamplesBeyond(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	v, pct, ok := pmax10(xs)
	if !ok || v != 990 || pct != 99 {
		t.Errorf("pmax10(1..1000) = %v at p%v ok=%v, want 990 at p99", v, pct, ok)
	}
	if beyond := len(xs) - int(v); beyond != tailSamples {
		t.Errorf("%d samples beyond the reported value, want %d", beyond, tailSamples)
	}
	if _, _, ok := pmax10(xs[:10]); ok {
		t.Error("pmax10 of 10 samples reported a percentile with fewer than 10 samples beyond it")
	}
	if v, _, ok := pmax10(xs[:11]); !ok || v != 1 {
		t.Errorf("pmax10 of 11 samples = %v ok=%v, want the minimum", v, ok)
	}
}

// The driver computes spreads with Python's statistics.quantiles(n=4);
// these expectations are that function's output.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestPoissonScheduleDeterministicPerSeed(t *testing.T) {
	a, b := poissonSchedule(2000, 200, 7), poissonSchedule(2000, 200, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(2000, 200, 8)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("due times decrease at %d", i)
		}
	}
	if rate := float64(len(a)) / (float64(a[len(a)-1]) / 1e9); rate < 180 || rate > 220 {
		t.Errorf("schedule rate %.1f/s, want about 200/s", rate)
	}
}

func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	// Due at 1 ms, released late, sent at 4 ms once a connection was free,
	// reply at 6 ms.
	s := reqSample{dueNs: 1e6, releasedNs: 1.2e6, sendNs: 4e6, recvNs: 6e6}
	if got := s.latencyNs(true); got != 5e6 {
		t.Errorf("open-loop latency %d ns, want 5e6 (reply minus due)", got)
	}
	if got := s.latencyNs(false); got != 2e6 {
		t.Errorf("closed-loop latency %d ns, want 2e6 (the round trip)", got)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	var l spanLog
	root := l.add(-1, "root", -1, 0, 100)
	a := l.add(root, "a", 0, 10, 30)
	l.add(root, "b", 0, 20, 50)       // overlaps a: the union is 10..50
	l.add(root, "c", 0, 90, 120)      // sticks out: clipped to 90..100
	l.add(a, "grandchild", 0, 12, 18) // not a direct child of root
	self := selfTimes(l.spans)
	if self[root] != 50 {
		t.Errorf("root self time %d, want 100 - 40 - 10 = 50", self[root])
	}
	if self[a] != 14 {
		t.Errorf("a self time %d, want 20 - 6 = 14", self[a])
	}
	sum := l.summary()
	if len(sum) != 5 || sum[1] != (spanStat{Name: "a", Count: 1, MeanUs: 0.020, SelfUs: 0.014}) {
		t.Errorf("summary = %+v", sum)
	}
	var none *spanLog
	if id := none.add(-1, "x", -1, 0, 1); id != -1 {
		t.Errorf("nil span log returned id %d", id)
	}
}

func TestDigestIsStableAndSensitive(t *testing.T) {
	ds := []decision{
		{Accepted: true, Price: 1.5e8, Hops: 12},
		{Reason: "priced-out"},
		{Reason: "no-path"},
	}
	got := digest(ds)
	if len(got) != 64 {
		t.Fatalf("digest %q is not SHA-256 hex", got)
	}
	if got != digest(append([]decision(nil), ds...)) {
		t.Error("the same decisions gave two digests")
	}
	const pinned = "b5943fd5ca5bac0a037aed5b8155db0b429b7855dd7a93e215709e95a5432f0c"
	if got != pinned {
		t.Errorf("digest changed: %s, pinned %s (a format change voids golden.json)", got, pinned)
	}
	for name, mutate := range map[string]func([]decision){
		"price bit":    func(d []decision) { d[0].Price = math.Nextafter(d[0].Price, 2e8) },
		"hops":         func(d []decision) { d[0].Hops++ },
		"accepted":     func(d []decision) { d[1].Accepted = true },
		"reason class": func(d []decision) { d[2].Reason = "priced-out" },
		"order":        func(d []decision) { d[1], d[2] = d[2], d[1] },
	} {
		changed := append([]decision(nil), ds...)
		mutate(changed)
		if digest(changed) == got {
			t.Errorf("digest blind to a change of %s", name)
		}
	}
}

func TestReasonClass(t *testing.T) {
	for reason, want := range map[string]string{
		"":                                     "",
		"no feasible path at slot 3":           "no-path",
		"plan price 4e8 exceeds valuation 3e8": "priced-out",
		"plan price exceeds valuation 3e+08 (budget-pruned at slot 2)": "priced-out",
		"energy infeasible at slot 9: x":                               "energy-infeasible",
		"expired":                                                      "expired",
		"horizon-exhausted":                                            "horizon-exhausted",
		"something new":                                                "other",
	} {
		if got := reasonClass(reason); got != want {
			t.Errorf("reasonClass(%q) = %q, want %q", reason, got, want)
		}
	}
}

func TestPlanFollowsSeconds(t *testing.T) {
	full, _ := findWorkload("full_direct")
	closed, _ := findWorkload("small_served_closed")
	for _, tc := range []struct {
		spec    workloadSpec
		seconds int
		reps    int
	}{{full, 15, 2}, {full, 30, 4}, {full, 1, 1}, {closed, 15, 18}, {closed, 5, 6}, {closed, 60, 72}} {
		if p := makePlan(tc.spec, 1, tc.seconds); p.reps != tc.reps {
			t.Errorf("%s at %d s: %d reps, want %d", tc.spec.Name, tc.seconds, p.reps, tc.reps)
		}
	}
}

func TestBestKeepsTheFastestRepetition(t *testing.T) {
	var b best
	b.fold([]int64{5, 9, 7}, 30, 0.5)
	b.fold([]int64{6, 4, 8}, 25, 0.7)
	b.fold([]int64{7, 8, 3}, 28, 0.4)
	if !reflect.DeepEqual(b.latNs, []int64{5, 4, 3}) || b.wallNs != 25 || b.cpuS != 0.4 || b.sumLatNs() != 12 {
		t.Errorf("best = %+v", b)
	}
}

func TestWorseByFollowsDirection(t *testing.T) {
	lower, higher := metricDef{Better: "lower"}, metricDef{Better: "higher"}
	if got := worseBy(lower, 10, 11); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 10 -> 11: %v, want 0.1", got)
	}
	if got := worseBy(higher, 10, 11); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher-is-better 10 -> 11: %v, want -0.1", got)
	}
	if got := worseBy(higher, 10, 9); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("higher-is-better 10 -> 9: %v, want 0.1", got)
	}
}

// benchmarkFile mirrors BENCHMARK.json's contract keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if got := sortedKeys(keys); !reflect.DeepEqual(got, wantKeys) {
		t.Errorf("BENCHMARK.json keys %v, want exactly %v", got, wantKeys)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", f.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(f.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v", f.Paths)
	}
	if !reflect.DeepEqual(f.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v", f.Command)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(f.Workloads) != len(workloads) || len(workloads) != 4 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code, want 4", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q (or the why differs)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(f.EndToEnd) != len(endToEnd) || len(endToEnd) > 8 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code, want at most 8", len(f.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range f.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Bound == nil || m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || *m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bad unit, direction or bound", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(f.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code, want at most 128", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: bad unit or direction", m.Name)
		}
	}
}

// TestSmoke drives all four workload shapes, timed and traced, for one
// stream at small scale, and holds every run's report to the driver's
// contract and the layer table to its two identities.
func TestSmoke(t *testing.T) {
	results, err := runSmoke(io.Discard, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*len(workloads) {
		t.Fatalf("%d smoke runs, want %d", len(results), 2*len(workloads))
	}
	for _, res := range results {
		var buf bytes.Buffer
		if err := report(&buf, res); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		last := []byte(lines[len(lines)-1])
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(last, &keys); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", res.Workload, err)
		}
		if got, want := sortedKeys(keys), []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result keys %v, want exactly %v", res.Workload, got, want)
		}
		var line contractLine
		if err := json.Unmarshal(last, &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("%s traced=%v: %+v; notes %v", res.Workload, res.Traced, line, res.Notes)
		}
		defs := metricDefs(res.Traced)
		if len(line.Metrics) != len(defs) {
			t.Errorf("%s traced=%v: %d metrics emitted, %d defined", res.Workload, res.Traced, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := line.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", res.Workload, res.Traced, d.Name, m.Unit, d.Unit)
			}
			if !res.Traced && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", res.Workload, d.Name, m.Value)
			}
		}
		if !res.Traced {
			continue
		}
		// The layers add up: admit = search + pricing + commit + other, and
		// round trip = server phases + residual.
		m := res.Metrics
		parts := m["netstate.search_self_us"] + m["energy.pricing_us"] + m["netstate.commit_us"] + m["core.other_us"]
		if math.Abs(parts-m["sim.admit_us"]) > 1e-6*m["sim.admit_us"] || m["core.other_us"] < 0 {
			t.Errorf("%s: admit parts %.3f != sim.admit_us %.3f (other %.3f)", res.Workload, parts, m["sim.admit_us"], m["core.other_us"])
		}
		rtt, served := res.Info["rtt_us_joined"]
		if spec, _ := findWorkload(res.Workload); served != (spec.Mode != modeDirect) {
			t.Errorf("%s: served layers present = %v", res.Workload, served)
		}
		if served {
			phases := m["server.ingress_parse_us"] + m["server.queue_wait_us"] + m["server.batch_wait_us"] + m["server.engine_admit_us"] + m["server.respond_us"]
			if math.Abs(phases+m["nethttp.residual_us"]-rtt) > 1e-6*rtt || m["nethttp.residual_us"] < 0 {
				t.Errorf("%s: phases %.3f + residual %.3f != round trip %.3f", res.Workload, phases, m["nethttp.residual_us"], rtt)
			}
		}
	}
}
