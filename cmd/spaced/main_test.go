package main

import (
	"bytes"
	"regexp"
	"testing"

	"spacebooking/internal/server"
)

// TestRejectsBeforeBuilding: a bad option exits 2 with nothing on
// stdout. Every row asks for -scale full, so an option checked only after
// the environment is built would first print "building full
// environment..." and propagate 1 584 satellites; the -slow-ms,
// -trace-sample NaN, -hotspots, stray-argument, -clock-rate,
// -valuation +Inf and -queue-depth 0 rows used to start the daemon.
// -hotspot-k and -hotspots are options spaced no longer has.
func TestRejectsBeforeBuilding(t *testing.T) {
	for _, row := range [][]string{
		{"-trace-sample", "2"},
		{"-trace-sample", "NaN"},
		{"-hotspot-k", "32"}, // the tracker size is a constant now
		{"-hotspots=false"},  // and tracking is always on
		{"-queue-depth", "-1"},
		{"-queue-depth", "0"},  // ran with the default 256, reported as queue 0
		{"-clock-rate", "-1"},  // ran arrival-driven, advertised as clock_rate -1
		{"-clock-rate", "NaN"}, // /v1/config and /v1/stats answered empty bodies
		{"-clock-rate", "+Inf"},
		{"-clock-rate", "2e9"},   // a slot period under 1ns
		{"-clock-rate", "1e-11"}, // a slot period that overflows a time.Duration
		{"-slow-ms", "-1"},
		{"-slow-ms", "0"},    // would fall back to the 25 ms default
		{"-slow-ms", "1e-9"}, // rounds to a zero time.Duration
		{"-slow-ms", "+Inf"},
		{"-slow-ms", "1e300"}, // overflows a time.Duration
		{"-valuation", "-1"},
		{"-valuation", "+Inf"},
		{"-valuation", "NaN"},
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

// TestTracingDisabledNamesSpacedFlags: every flag the trace lookups' 404
// tells the user to start spaced with is one spaced defines (the message
// once named -trace after the flag was gone).
func TestTracingDisabledNamesSpacedFlags(t *testing.T) {
	var out, usage bytes.Buffer
	if code := run([]string{"-h"}, &out, &usage); code != 2 {
		t.Fatalf("-h: exit %d, want 2", code)
	}
	named := regexp.MustCompile(`-[a-z][a-z-]*`).FindAllString(server.TracingDisabled, -1)
	if len(named) == 0 {
		t.Fatalf("%q names no flag", server.TracingDisabled)
	}
	for _, flag := range named {
		if !regexp.MustCompile(`(?m)^  ` + flag + `( |$)`).MatchString(usage.String()) {
			t.Errorf("%q names %s, which spaced does not define:\n%s", server.TracingDisabled, flag, usage.String())
		}
	}
}
