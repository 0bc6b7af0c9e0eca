package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"spacebooking/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/ from this run")

// timing masks the two lines of figure output that carry wall time.
var timing = regexp.MustCompile(`(?m)^(environment ready in|all figures reproduced in) [^:\n]*`)

// TestFigureGolden runs every figure at small scale, and the scenario
// figure on specs/smoke.json, and compares stdout (timing masked) and
// each -csv export byte for byte with the case's pinned directory. A
// change that moves decisions re-pins with `go test ./cmd/spacebench
// -run TestFigureGolden -update` in the same commit (the package before
// -update: go test hands every argument after a flag it does not know to
// the test binary).
func TestFigureGolden(t *testing.T) {
	for _, tc := range []struct {
		name, pinned string
		args         []string
	}{
		{"all", "testdata", []string{"all"}},
		{"scenario", filepath.Join("testdata", "scenario"), []string{"-spec", filepath.Join("..", "..", "specs", "smoke.json"), "scenario"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			code, out, errOut := runBench(t, append([]string{"-scale", "small", "-quiet", "-csv", dir}, tc.args...)...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errOut)
			}
			checkGolden(t, tc.pinned, dir, timing.ReplaceAll([]byte(out), []byte("$1 X")))
		})
	}
}

// checkGolden compares stdout and the CSVs in csvDir with the files in
// pinned, or rewrites pinned from them under -update.
func checkGolden(t *testing.T, pinned, csvDir string, stdout []byte) {
	t.Helper()
	got := map[string][]byte{"stdout.txt": stdout}
	csvs, err := filepath.Glob(filepath.Join(csvDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range csvs {
		if got[filepath.Base(path)], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		if err := os.MkdirAll(pinned, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range got {
			if err := os.WriteFile(filepath.Join(pinned, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	entries, err := os.ReadDir(pinned)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, e := range entries {
		if !e.IsDir() {
			files++
		}
	}
	if files != len(got) {
		t.Errorf("%d output files, %d pinned in %s", len(got), files, pinned)
	}
	for name, data := range got {
		want, err := os.ReadFile(filepath.Join(pinned, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if string(data) != string(want) {
			t.Errorf("%s differs from %s:\n%s", name, filepath.Join(pinned, name), data)
		}
	}
}

// TestFigureReportHoldsOneRun: a figure's -report holds the registry of
// its last run alone ("obs_scope": "last_run"), not a sum over the
// figure's runs. The scenario figure's last run is ERA, whose request
// total is the last row of scenario.csv; the competitive figure makes
// one online run, whose accepted count is the table's. The report's
// num_seeds is the seeds the figure ran: -seeds for Fig. 6, one for the
// others.
func TestFigureReportHoldsOneRun(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		numSeeds float64
		counter  string
		want     func(t *testing.T, out, csvDir string) int64 // nil: no counter check
	}{
		{"scenario", []string{"-spec", filepath.Join("..", "..", "specs", "smoke.json"), "scenario"}, 1, "sim.requests.total",
			func(t *testing.T, _, csvDir string) int64 {
				data, err := os.ReadFile(filepath.Join(csvDir, "scenario.csv"))
				if err != nil {
					t.Fatal(err)
				}
				rows := strings.Split(strings.TrimSpace(string(data)), "\n")
				return atoi(t, strings.Split(rows[len(rows)-1], ",")[2])
			}},
		{"competitive", []string{"competitive"}, 1, "sim.requests.accepted",
			func(t *testing.T, out, _ string) int64 {
				m := regexp.MustCompile(`(?m)^online accepted +(\d+)`).FindStringSubmatch(out)
				if m == nil {
					t.Fatalf("no online accepted row:\n%s", out)
				}
				return atoi(t, m[1])
			}},
		{"fig6", []string{"-seeds", "2", "fig6"}, 2, "", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			report := filepath.Join(dir, "report.json")
			code, out, errOut := runBench(t, append([]string{"-scale", "small", "-quiet", "-csv", dir, "-report", report}, tc.args...)...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errOut)
			}
			f, err := os.Open(report)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rep, err := obs.ReadReport(f)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Config["num_seeds"]; got != tc.numSeeds {
				t.Errorf("report has num_seeds %v, want %v", got, tc.numSeeds)
			}
			if tc.want == nil {
				return
			}
			want := tc.want(t, out, dir)
			if got := rep.Observability.Counters[tc.counter]; rep.Config["obs_scope"] != "last_run" || got != want {
				t.Errorf("report (obs_scope %v) has %s = %d, want the last run's %d", rep.Config["obs_scope"], tc.counter, got, want)
			}
		})
	}
}

func atoi(t *testing.T, s string) int64 {
	t.Helper()
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
