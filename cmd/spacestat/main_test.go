package main

import (
	"bytes"
	"strings"
	"testing"
)

// runStat runs spacestat with args and stdin and returns the exit code
// and what it wrote to stdout and stderr.
func runStat(t *testing.T, args []string, stdin string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunDispatch(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"-trace"}} {
		code, out, errOut := runStat(t, args, "")
		if code != 2 || out != "" {
			t.Errorf("%q: exit %d, stdout %q; want 2 and nothing on stdout", args, code, out)
		}
		for _, sub := range []string{"trace", "spec", "diff", "top"} {
			if !strings.Contains(errOut, "\n  "+sub+" ") {
				t.Errorf("%q: usage does not list %q:\n%s", args, sub, errOut)
			}
		}
	}
	code, out, _ := runStat(t, []string{"-version"}, "")
	if code != 0 || !strings.HasPrefix(out, "spacestat ") {
		t.Errorf("-version: exit %d, stdout %q", code, out)
	}
	// A subcommand's flag errors are usage errors named after it.
	code, _, errOut := runStat(t, []string{"trace", "-bogus", "-"}, "")
	if code != 2 || !strings.Contains(errOut, "usage: spacestat trace") {
		t.Errorf("bad flag: exit %d, stderr %q", code, errOut)
	}
}
