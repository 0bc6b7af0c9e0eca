package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodSpec = `{
  "version": 1,
  "name": "unit",
  "seed": 7,
  "horizon": 2000,
  "classes": [{
    "name": "calls",
    "arrival": {"process": "poisson", "rate_per_slot": 5},
    "mix": {"min_duration_slots": 1, "max_duration_slots": 3,
            "min_rate_mbps": 500, "max_rate_mbps": 2000, "mean_rate_mbps": 1250,
            "valuation": 1e8}
  }]
}`

func writeSpec(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runSpecArgs runs `spacestat spec args...` and fails the test unless
// it exits with want.
func runSpecArgs(t *testing.T, want int, args ...string) (stdout, stderr string) {
	t.Helper()
	code, out, errOut := runStat(t, append([]string{"spec"}, args...), "")
	if code != want {
		t.Fatalf("spec %q: exit %d, want %d; stderr %q", args, code, want, errOut)
	}
	return out, errOut
}

func TestSummarizeValidSpec(t *testing.T) {
	path := writeSpec(t, goodSpec)
	out, _ := runSpecArgs(t, 0, path)
	want := `spec unit (version 1, seed 7, horizon 2000)
  total arrival rate 5/slot, 1 classes
  class calls        poisson rate 5/slot, dur [1,3], mean 1250 Mbps, valuation 1e+08
`
	if out != want {
		t.Errorf("human summary:\n%s\nwant:\n%s", out, want)
	}
	out, _ = runSpecArgs(t, 0, "-json", path)
	var s specSummary
	if err := json.Unmarshal([]byte(out), &s); err != nil {
		t.Fatalf("json mode: %v\n%s", err, out)
	}
	if s.Name != "unit" || s.Horizon != 2000 || len(s.Classes) != 1 || s.Rate != 5 || !s.Stations {
		t.Errorf("json summary = %+v", s)
	}
}

func TestSummarizeInvalidSpec(t *testing.T) {
	runSpecArgs(t, 1, writeSpec(t, `{"version": 9, "name": "bad", "classes": []}`))
	runSpecArgs(t, 1, filepath.Join(t.TempDir(), "missing.json"))
	runSpecArgs(t, 2)
}

func TestSummarizeErlangB(t *testing.T) {
	path := writeSpec(t, goodSpec)
	// λ=5, mean hold 2 → 10 erlangs on 12 servers: the generator's
	// measured blocking must land inside the documented tolerance.
	out, _ := runSpecArgs(t, 0, "-servers", "12", path)
	if !strings.Contains(out, "  erlang_b servers=12 offered=10.000E") || !strings.HasSuffix(out, " PASS\n") {
		t.Errorf("erlang-b line missing or not PASS:\n%s", out)
	}
}

func TestSummarizeErlangBNeedsHorizon(t *testing.T) {
	noHorizon := strings.Replace(goodSpec, `"horizon": 2000,`, "", 1)
	path := writeSpec(t, noHorizon)
	if _, errOut := runSpecArgs(t, 1, "-servers", "12", path); !strings.Contains(errOut, "horizon") {
		t.Fatalf("horizon-free erlang-b run: %q", errOut)
	}
	runSpecArgs(t, 0, "-servers", "12", "-horizon", "2000", path)
}

func TestSummarizeErlangBRejectsNonStationary(t *testing.T) {
	withEvent := strings.Replace(goodSpec, `"classes"`, `"events": [{"kind": "flash_crowd", "start_slot": 1, "end_slot": 5, "factor": 2}], "classes"`, 1)
	path := writeSpec(t, withEvent)
	runSpecArgs(t, 1, "-servers", "12", path)
	// Without -servers the same spec is fine.
	runSpecArgs(t, 0, path)
}
