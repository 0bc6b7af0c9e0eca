package main

import (
	"bytes"
	"testing"
)

// TestRejectsBeforeBuilding: a bad option exits 2 with nothing on
// stdout. Every row asks for -scale full, so an option checked only after
// the environment is built would first print "building full
// environment..." and propagate 1 584 satellites; the -slow-ms,
// -trace-sample NaN, -hotspots and stray-argument rows used to start the
// daemon.
func TestRejectsBeforeBuilding(t *testing.T) {
	for _, row := range [][]string{
		{"-trace-sample", "2"},
		{"-trace-sample", "NaN"},
		{"-hotspot-k", "-1"},
		{"-hotspots=false"}, // one knob now: -hotspot-k 0
		{"-queue-depth", "-1"},
		{"-batch-size", "-1"},
		{"-slow-ms", "-1"},
		{"-slow-ms", "0"},    // would fall back to the 25 ms default
		{"-slow-ms", "1e-9"}, // rounds to a zero time.Duration
		{"-slow-ms", "+Inf"},
		{"-slow-ms", "1e300"}, // overflows a time.Duration
		{"-valuation", "-1"},
		{"-f1", "0"},
		{"stray"},
	} {
		args := append([]string{"-scale", "full", "-addr", "127.0.0.1:0"}, row...)
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q; want 2 and nothing on stdout", row, code, out.String())
		}
	}
}
