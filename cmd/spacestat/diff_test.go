package main

import (
	"path/filepath"
	"strings"
	"testing"

	"spacebooking/internal/obs"
)

// sampleReport builds a report shaped like a real `spacebench run`, with
// the slot wall-time histogram mean scaled by slowdown (1.0 = baseline).
func sampleReport(slowdown float64) *obs.Report {
	rep := obs.NewReport("spacebench")
	rep.SetConfig("scale", "small")
	rep.SetConfig("algorithm", "CEAR")
	rep.SetMetric("welfare_ratio", 0.84)
	rep.SetMetric("requests_total", 192)
	rep.SetMetric("elapsed_seconds", 1.0*slowdown)
	rep.Observability = obs.RegistrySnapshot{
		Counters: map[string]int64{"graph.dijkstra.heap_pops": 1000},
		Histograms: map[string]obs.HistogramSnapshot{
			"sim.slot_seconds": {
				Count: 96, Sum: 0.96 * slowdown,
				Min: 0.005 * slowdown, Max: 0.02 * slowdown,
				Mean: 0.01 * slowdown, P50: 0.01 * slowdown,
				P95: 0.018 * slowdown, P99: 0.02 * slowdown,
			},
		},
		Phases: []obs.PhaseSnapshot{
			{Name: "admission", Count: 1, TotalSeconds: 0.5 * slowdown},
		},
		TimeSeries: map[string]obs.SeriesSnapshot{
			"slot.revenue_cum": {Capacity: 96, Total: 96, Slots: []int64{94, 95}, Values: []float64{10, 12}},
		},
		TopK: map[string]obs.TopKSnapshot{
			"sim.hotspots.src_rejected": {K: 32, Mode: "sum", Total: 4},
		},
	}
	return rep
}

func writeReport(t *testing.T, name string, rep *obs.Report) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := obs.WriteReportFile(path, rep); err != nil {
		t.Fatal(err)
	}
	return path
}

// runDiffArgs runs `spacestat diff args...` and returns its exit code
// and stdout.
func runDiffArgs(t *testing.T, args ...string) (int, string) {
	t.Helper()
	code, out, _ := runStat(t, append([]string{"diff"}, args...), "")
	return code, out
}

func TestSelfCompareExitsZero(t *testing.T) {
	path := writeReport(t, "run.json", sampleReport(1))
	code, out, errOut := runStat(t, []string{"diff", path, path}, "")
	if code != 0 {
		t.Fatalf("self-compare exit = %d, stderr %q, stdout:\n%s", code, errOut, out)
	}
	for _, want := range []string{
		"metrics:", "welfare_ratio", "counters:", "graph.dijkstra.heap_pops",
		"histogram quantiles:", "sim.slot_seconds.p95", "phases:",
		"timeseries final values:", "slot.revenue_cum.last",
		"hotspot totals:", "sim.hotspots.src_rejected.total",
		"obsdiff: ok",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSlotTimeRegressionExitsNonZero is the acceptance check: a +10%
// slot wall-time regression must fail the default 5% gate.
func TestSlotTimeRegressionExitsNonZero(t *testing.T) {
	oldPath := writeReport(t, "old.json", sampleReport(1))
	newPath := writeReport(t, "new.json", sampleReport(1.10))
	code, out := runDiffArgs(t, oldPath, newPath)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION histograms.sim.slot_seconds.mean") {
		t.Errorf("output does not name the regressed histogram:\n%s", out)
	}
	// The same pair passes with a looser threshold...
	if code, out := runDiffArgs(t, "-max-regress", "15%", oldPath, newPath); code != 0 {
		t.Fatalf("15%% threshold exit = %d, want 0:\n%s", code, out)
	}
	// ...and with default gates disabled.
	if code, out := runDiffArgs(t, "-max-regress", "", oldPath, newPath); code != 0 {
		t.Fatalf("disabled gates exit = %d, want 0:\n%s", code, out)
	}
	// Faster is never a regression.
	if code, out := runDiffArgs(t, newPath, oldPath); code != 0 {
		t.Fatalf("improvement exit = %d, want 0:\n%s", code, out)
	}
}

func TestExplicitGates(t *testing.T) {
	oldRep := sampleReport(1)
	newRep := sampleReport(1)
	newRep.Observability.TimeSeries["slot.revenue_cum"] = obs.SeriesSnapshot{
		Capacity: 96, Total: 96, Slots: []int64{95}, Values: []float64{20},
	}
	oldPath := writeReport(t, "old.json", oldRep)
	newPath := writeReport(t, "new.json", newRep)
	// Gate final cumulative revenue as lower-is-better: +66% trips it.
	code, out := runDiffArgs(t, "-q", "-max-regress", "", "-gate", "timeseries.slot.revenue_cum.last=10%", oldPath, newPath)
	if code != 1 || !strings.Contains(out, "timeseries.slot.revenue_cum.last") {
		t.Fatalf("gate exit = %d, output:\n%s", code, out)
	}
	// Bare keys address metrics; an untripped gate passes.
	code, out = runDiffArgs(t, "-q", "-max-regress", "", "-gate", "welfare_ratio=1%", oldPath, newPath)
	if code != 0 {
		t.Fatalf("metric gate exit = %d, output:\n%s", code, out)
	}
	// Malformed gate specs are usage errors.
	if code, _ := runDiffArgs(t, "-gate", "nonsense", oldPath, newPath); code != 2 {
		t.Fatalf("malformed gate exit = %d, want 2", code)
	}
}

// TestGateOnZeroFires: a gated value that grows from 0 regresses by
// +Inf%, so a 0% gate on a counter that should stay 0 catches it.
func TestGateOnZeroFires(t *testing.T) {
	oldRep := sampleReport(1)
	oldRep.Observability.Counters["server.trace.dropped"] = 0
	newRep := sampleReport(1)
	newRep.Observability.Counters["server.trace.dropped"] = 3
	oldPath := writeReport(t, "old.json", oldRep)
	newPath := writeReport(t, "new.json", newRep)
	code, out := runDiffArgs(t, "-max-regress", "", "-gate", "counters.server.trace.dropped=0%", oldPath, newPath)
	if code != 1 || !strings.Contains(out, "REGRESSION counters.server.trace.dropped: 0 -> 3 (+Inf% > 0.0% allowed)") {
		t.Fatalf("0 -> 3 under a 0%% gate: exit %d, output:\n%s", code, out)
	}
	if !strings.Contains(out, "server.trace.dropped                     0 -> 3 (+Inf%)") {
		t.Errorf("delta listing does not show 0 -> 3 as +Inf%%:\n%s", out)
	}
	// Staying at 0 passes.
	if code, out := runDiffArgs(t, "-max-regress", "", "-gate", "counters.server.trace.dropped=0%", oldPath, oldPath); code != 0 {
		t.Fatalf("0 -> 0 under a 0%% gate: exit %d, output:\n%s", code, out)
	}
}

func TestLoadErrors(t *testing.T) {
	if code, _ := runDiffArgs(t, "missing-a.json", "missing-b.json"); code != 2 {
		t.Fatalf("missing files exit = %d, want 2", code)
	}
	if code, _ := runDiffArgs(t); code != 2 {
		t.Fatalf("no args exit = %d, want 2", code)
	}
	if code, _ := runDiffArgs(t, "-max-regress", "bogus",
		writeReport(t, "a.json", sampleReport(1)), writeReport(t, "b.json", sampleReport(1))); code != 2 {
		t.Fatalf("bad threshold exit = %d, want 2", code)
	}
}

func TestParsePct(t *testing.T) {
	for in, want := range map[string]float64{"5%": 0.05, "0.05": 0.05, "12.5%": 0.125, "0": 0} {
		got, err := parsePct(in)
		if err != nil || got != want {
			t.Errorf("parsePct(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "-5%"} {
		if _, err := parsePct(bad); err == nil {
			t.Errorf("parsePct(%q) should error", bad)
		}
	}
}

func TestLookupPaths(t *testing.T) {
	rep := sampleReport(1)
	for key, want := range map[string]float64{
		"welfare_ratio":                            0.84,
		"metrics.welfare_ratio":                    0.84,
		"counters.graph.dijkstra.heap_pops":        1000,
		"histograms.sim.slot_seconds.p99":          0.02,
		"phases.admission.total_seconds":           0.5,
		"timeseries.slot.revenue_cum.last":         12,
		"timeseries.slot.revenue_cum.total":        96,
		"hotspots.sim.hotspots.src_rejected.total": 4,
	} {
		got, ok := lookup(rep, key)
		if !ok || got != want {
			t.Errorf("lookup(%q) = %v, %v; want %v", key, got, ok, want)
		}
	}
	for _, bad := range []string{"histograms.sim.slot_seconds.bogus", "phases.absent.count", "nope"} {
		if _, ok := lookup(rep, bad); ok {
			t.Errorf("lookup(%q) should miss", bad)
		}
	}
}
