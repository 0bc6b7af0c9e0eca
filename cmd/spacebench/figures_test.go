package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ from this run")

// timing masks the two lines of figure output that carry wall time.
var timing = regexp.MustCompile(`(?m)^(environment ready in|all figures reproduced in) [^:\n]*`)

// TestFigureGolden runs every figure at small scale and compares stdout
// (timing masked) and each -csv export byte for byte with testdata/. A
// change that moves decisions re-pins with `go test -run
// TestFigureGolden -update` in the same commit.
func TestFigureGolden(t *testing.T) {
	dir := t.TempDir()
	code, out, errOut := runBench(t, "-scale", "small", "-quiet", "-csv", dir, "all")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	got := map[string][]byte{"stdout.txt": timing.ReplaceAll([]byte(out), []byte("$1 X"))}
	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range csvs {
		if got[filepath.Base(path)], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		for name, data := range got {
			if err := os.WriteFile(filepath.Join("testdata", name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	pinned, err := filepath.Glob(filepath.Join("testdata", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pinned) != len(got) {
		t.Errorf("%d output files, %d pinned", len(got), len(pinned))
	}
	for name, data := range got {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if string(data) != string(want) {
			t.Errorf("%s differs from testdata/%s:\n%s", name, name, data)
		}
	}
}
