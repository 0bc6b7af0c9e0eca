package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReportAndSVG(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lsn.svg")
	var out, errOut bytes.Buffer
	if code := run([]string{"-scale", "small", "-svg", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	for _, want := range []string{
		"\nconstellation: ", "\norbit: ", "\nlinks: ISL ", "\nhorizon: ", "\nslot 0: ", " satellites sunlit ",
		"\nISLs: ", "\nsite (40.70, -74.00): covered ", "\nsample request ", "\nwrote " + path + " (", "\ncompleted in ",
	} {
		if !strings.Contains("\n"+out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
	svg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s := strings.TrimSpace(string(svg)); !strings.HasPrefix(s, "<svg") || !strings.HasSuffix(s, "</svg>") {
		t.Errorf("%s is not one SVG document: %.80q ... %q", path, s, s[max(0, len(s)-20):])
	}
}

// TestUsageErrors: a bad invocation exits 2 with no report. The -slot and
// -load rows are checked against the scale's preset before the
// environment is built, so the paper-scale row costs no propagation.
func TestUsageErrors(t *testing.T) {
	svg := filepath.Join(t.TempDir(), "never.svg")
	for _, args := range [][]string{
		{"-load", "2"}, {"stray"}, {"-bogus"},
		{"-slot", "-1"},
		{"-slot", "96"}, // the small horizon is 96 slots
		{"-scale", "full", "-slot", "999"},
		{"-scale", "medium", "-slot", "192"},
		{"-load", "-1", "-svg", svg},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q; want 2 and no report", args, code, out.String())
		}
	}
	if _, err := os.Stat(svg); !os.IsNotExist(err) {
		t.Errorf("a usage error wrote %s (stat: %v)", svg, err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-scale", "huge"}, &out, &errOut); code != 1 || !strings.Contains(errOut.String(), "unknown scale") {
		t.Errorf("-scale huge: exit %d, stderr %q", code, errOut.String())
	}
}
