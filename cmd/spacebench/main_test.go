package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spacebooking/internal/obs"
)

// runBench runs spacebench with args and returns the exit code and what
// it wrote to stdout and stderr.
func runBench(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestRejectsBeforeBuilding: a bad invocation exits before the
// environment is built, so nothing reaches stdout — not even the
// "building … environment" line, which the full scale would follow with
// the whole 1 584-satellite constellation.
func TestRejectsBeforeBuilding(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 2, "usage: spacebench "},
		{[]string{"nosuchfig"}, 2, "usage: spacebench "},
		{[]string{"-scale", "full", "nosuchfig"}, 2, "usage: spacebench "},
		{[]string{"fig6", "extra"}, 2, "usage: spacebench "},
		{[]string{"-bogus", "fig6"}, 2, "usage: spacebench "},
		{[]string{"-scale", "full", "adaptive"}, 2, "usage: spacebench "}, // a deleted figure
		{[]string{"-scale", "full", "scenario"}, 2, "spacebench scenario: the scenario figure needs -spec"},
		{[]string{"-scale", "full", "-spec", missing, "scenario"}, 1, "spacebench scenario: "},
		{[]string{"-scale", "huge", "fig6"}, 1, "spacebench fig6: "},
		{[]string{"run", "-bogus"}, 2, "usage: spacebench run"},
		{[]string{"run", "extra"}, 2, "usage: spacebench run"},
		{[]string{"run", "-spec", "a.json", "-replay", "b.jsonl"}, 1, "spacebench run: -spec and -replay are mutually exclusive"},
		{[]string{"run", "-record"}, 2, "usage: spacebench run"}, // -trace alone records
		{[]string{"run", "-alg", "DIJKSTRA"}, 1, "CEAR"},
		{[]string{"run", "-alg", "CEAR-AD"}, 1, `unknown algorithm "CEAR-AD"`}, // a deleted kind
		// A non-finite -rate panicked in workload.Generate; a NaN
		// -valuation turned admission control off.
		{[]string{"run", "-scale", "full", "-rate", "NaN"}, 2, "spacebench run: -rate NaN"},
		{[]string{"run", "-scale", "full", "-rate", "+Inf"}, 2, "spacebench run: -rate +Inf"},
		{[]string{"run", "-scale", "full", "-rate", "-1"}, 2, "spacebench run: -rate -1"},
		{[]string{"run", "-scale", "full", "-valuation", "NaN"}, 2, "-valuation NaN must be finite"},
		{[]string{"run", "-scale", "full", "-valuation", "+Inf"}, 2, "-valuation +Inf must be finite"},
		{[]string{"run", "-scale", "full", "-valuation", "-1"}, 2, "-valuation -1 must be finite"},
		{[]string{"run", "-scale", "full", "-spec", missing}, 1, "spacebench run: "},
		{[]string{"run", "-scale", "full", "-replay", missing}, 1, "spacebench run: "},
	} {
		code, out, errOut := runBench(t, tc.args...)
		if code != tc.code || out != "" || !strings.Contains(errOut, tc.stderr) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit %d, no stdout, stderr containing %q",
				tc.args, code, out, errOut, tc.code, tc.stderr)
		}
	}
}

// TestRunRejectsUndrawableRate: a finite -rate beyond what the Poisson
// sampler can draw is the workload's error, exit 1, not a panic in the
// generator's preallocation.
func TestRunRejectsUndrawableRate(t *testing.T) {
	code, _, errOut := runBench(t, "run", "-scale", "small", "-rate", "1e308")
	if code != 1 || !strings.Contains(errOut, "spacebench run: workload: arrival rate 1e+308 per slot exceeds 708.4") {
		t.Errorf("-rate 1e308: exit %d, stderr %q; want 1 and the workload's bound", code, errOut)
	}
}

func TestVersion(t *testing.T) {
	for _, args := range [][]string{{"-version"}, {"run", "-version"}} {
		code, out, _ := runBench(t, args...)
		if code != 0 || !strings.HasPrefix(out, "spacebench ") {
			t.Errorf("%q: exit %d, stdout %q", args, code, out)
		}
	}
}

// TestRunNamesItsWorkloadSource: under -spec the header and the report
// name the spec and its own seed (101 in specs/smoke.json), not -seed or
// the scale's default rate and valuation; replaying that run names the
// recording and how many requests it holds.
func TestRunNamesItsWorkloadSource(t *testing.T) {
	dir := t.TempDir()
	recorded := filepath.Join(dir, "recorded.jsonl")
	specReport, replayReport := filepath.Join(dir, "spec.json"), filepath.Join(dir, "replay.json")
	readConfig := func(path string) (map[string]any, map[string]float64) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep obs.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep.Config, rep.Metrics
	}

	code, out, errOut := runBench(t, "run", "-scale", "small", "-spec", "../../specs/smoke.json", "-seed", "7",
		"-trace", recorded, "-report", specReport)
	if code != 0 {
		t.Fatalf("spec run: exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "\nworkload         spec smoke, seed 101\n") || strings.Contains(out, "arrival rate") {
		t.Errorf("spec run header does not name the spec's seed:\n%s", out)
	}
	config, _ := readConfig(specReport)
	if config["seed"] != 101.0 || config["rate_per_min"] != nil || config["valuation"] != nil {
		t.Errorf("spec run report config: %v", config)
	}

	code, out, errOut = runBench(t, "run", "-scale", "small", "-replay", recorded, "-report", replayReport)
	if code != 0 {
		t.Fatalf("replay: exit %d: %s", code, errOut)
	}
	config, metrics := readConfig(replayReport)
	n := metrics["requests_total"]
	if want := fmt.Sprintf("\nworkload         %d requests replayed from %s\n", int(n), recorded); n == 0 || !strings.Contains(out, want) {
		t.Errorf("replay header does not name the recording, want %q:\n%s", want, out)
	}
	if config["replay"] != recorded || config["replay_requests"] != n || config["seed"] != nil || config["rate_per_min"] != nil {
		t.Errorf("replay report config: %v", config)
	}
}

// TestRecordReplay records a spec-driven small-scale run and replays the
// recording: the replay must make the same decisions and print the same
// result, apart from the lines naming the workload source and the wall
// time.
func TestRecordReplay(t *testing.T) {
	dir := t.TempDir()
	recorded, replayed := filepath.Join(dir, "recorded.jsonl"), filepath.Join(dir, "replayed.jsonl")
	code, recOut, errOut := runBench(t, "run", "-scale", "small", "-spec", "../../specs/smoke.json", "-trace", recorded)
	if code != 0 {
		t.Fatalf("record: exit %d: %s", code, errOut)
	}
	code, repOut, errOut := runBench(t, "run", "-scale", "small", "-replay", recorded, "-trace", replayed)
	if code != 0 {
		t.Fatalf("replay: exit %d: %s", code, errOut)
	}
	if !strings.Contains(recOut, "\nscenario         smoke (spec)\n") ||
		!strings.Contains(repOut, "\nscenario         smoke (replayed spec)\n") {
		t.Errorf("scenario lines missing:\n%s\n---\n%s", recOut, repOut)
	}
	result := func(out string) string {
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "scenario ") && !strings.HasPrefix(line, "events ") &&
				!strings.HasPrefix(line, "workload ") && !strings.HasPrefix(line, "completed in ") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if a, b := result(recOut), result(repOut); a != b {
		t.Errorf("replay printed a different result:\n%s\n---\n%s", a, b)
	}
	decisions := func(path string) []string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, `"kind":"decision"`) {
				lines = append(lines, line)
			}
		}
		return lines
	}
	a, b := decisions(recorded), decisions(replayed)
	if len(a) == 0 || strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("decision lines differ: %d recorded, %d replayed", len(a), len(b))
	}
}
