package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
		{[]string{"-scale", "full", "scenario"}, 2, "spacebench scenario: the scenario figure needs -spec"},
		{[]string{"-scale", "full", "-spec", missing, "scenario"}, 1, "spacebench scenario: "},
		{[]string{"-scale", "huge", "fig6"}, 1, "spacebench fig6: "},
		{[]string{"run", "-bogus"}, 2, "usage: spacebench run"},
		{[]string{"run", "extra"}, 2, "usage: spacebench run"},
		{[]string{"run", "-spec", "a.json", "-replay", "b.jsonl"}, 1, "spacebench run: -spec and -replay are mutually exclusive"},
		{[]string{"run", "-record"}, 1, "spacebench run: -record requires -trace"},
		{[]string{"run", "-alg", "DIJKSTRA"}, 1, "CEAR"},
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

func TestVersion(t *testing.T) {
	for _, args := range [][]string{{"-version"}, {"run", "-version"}} {
		code, out, _ := runBench(t, args...)
		if code != 0 || !strings.HasPrefix(out, "spacebench ") {
			t.Errorf("%q: exit %d, stdout %q", args, code, out)
		}
	}
}

// TestRecordReplay records a spec-driven small-scale run and replays the
// recording: the replay must make the same decisions and print the same
// result, apart from the lines naming the workload source and the wall
// time.
func TestRecordReplay(t *testing.T) {
	dir := t.TempDir()
	recorded, replayed := filepath.Join(dir, "recorded.jsonl"), filepath.Join(dir, "replayed.jsonl")
	code, recOut, errOut := runBench(t, "run", "-scale", "small", "-spec", "../../specs/smoke.json", "-record", "-trace", recorded)
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
				!strings.HasPrefix(line, "completed in ") {
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
