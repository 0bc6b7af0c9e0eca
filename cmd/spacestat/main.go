// Command spacestat reads what the rest of the repo writes: decision
// traces and audit logs, scenario specs, run reports and a live daemon's
// hot spots. Every subcommand is a CI gate somewhere (see the
// exit codes) as well as an operator's tool.
//
// Usage:
//
//	spacestat trace [-min N] [-json] FILE|-
//	spacestat spec [-json] [-servers M [-horizon H]] SPEC...
//	spacestat diff [-max-regress P] [-gate K=P]... [-q] OLD NEW
//	spacestat top [-addr URL] [-interval D] [-n N] [-once]
//	spacestat -version
//
// An input named "-" is read from standard input.
//
// trace validates and summarises a JSON-lines decision log — a
// `spacebench run -trace` file or a `spaced -audit-log`, which write the
// same decision record. Every line must parse as a record of a known kind,
// so a truncated or interleaved line fails the run. It prints acceptance
// counts, revenue, rejection breakdown, price quantiles and the
// depletion/congestion time series; on an audit log it adds per-outcome
// counts, sampling coverage and a per-phase duration table over the
// sampled decisions. -min fails a file with fewer decisions; -json prints
// the counts as JSON. Exit 1 on a bad or short file.
//
// spec validates and summarises scenario spec files: the versioned
// schema check, a per-class table (arrival process, rates, request mix)
// and the event timeline. With -servers it also runs the Erlang-B
// analytical twin on a stationary single-bottleneck spec — closed-form
// blocking against the measured blocking of an m-server loss simulation
// over -horizon slots (default: the spec's) — and fails unless they
// agree within the documented tolerance. Exit 1 on any invalid spec or
// failed twin.
//
// diff compares two run reports (`spacebench run -report`,
// `spacebench -report FIGURE`, `spaced -report`). It flattens each report
// into one table of dotted keys: metrics.K, counters.K, gauges.K,
// histograms.NAME.{count,sum,min,max,mean,p50,p95,p99,p999},
// phases.NAME.{total_seconds,count}, timeseries.NAME.{last,total} and
// hotspots.NAME.total. It lists every key of either report, grouped by
// section, old -> new, under the very name -gate takes. Lower is better
// on every gate. -max-regress (default 5%) gates every wall-time key
// present in both reports: the mean and p95 of histograms whose name
// contains "seconds", every phase's total_seconds, and metrics whose key
// contains "seconds"; an empty -max-regress disables these default
// gates. -gate KEY=PCT adds an explicit gate on one listed key (a bare
// KEY means metrics.KEY). A gated value that grows from 0 is a
// regression of +Inf%. -q prints the regressions only. Exit 0 when no
// gated value regresses, 1 on regression, 2 on usage or load errors
// (including mixed report versions and a -gate key either report lacks).
//
// top is a top(1)-style viewer for a running spaced daemon: it polls
// GET /v1/stats (the header) and GET /metrics.json (the registry's topk
// section) and renders the ranked hot ISLs,
// batteries and source cells, with per-interval deltas so a moving hot
// spot stands out from a historically hot one. -once prints one snapshot without clearing the
// screen (scripts and CI); otherwise it redraws every -interval until
// interrupted.
//
// Usage errors exit 2 in every subcommand.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"spacebooking/internal/buildinfo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// cmd is one subcommand invocation: its flag set (named "spacestat
// NAME", ContinueOnError, output to stderr) and the three streams.
type cmd struct {
	fs             *flag.FlagSet
	stdin          io.Reader
	stdout, stderr io.Writer
}

// subcommands lists the subcommands with their argument synopsis.
var subcommands = []struct {
	name, synopsis string
	run            func(c *cmd, args []string) int
}{
	{"trace", "[-min N] [-json] FILE|-", runTrace},
	{"spec", "[-json] [-servers M [-horizon H]] SPEC...", runSpec},
	{"diff", "[-max-regress P] [-gate K=P]... [-q] OLD NEW", runDiff},
	{"top", "[-addr URL] [-interval D] [-n N] [-once]", runTop},
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 1 && args[0] == "-version" {
		fmt.Fprintln(stdout, buildinfo.Line("spacestat"))
		return 0
	}
	for _, sub := range subcommands {
		if len(args) == 0 || args[0] != sub.name {
			continue
		}
		fs := flag.NewFlagSet("spacestat "+sub.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		fs.Usage = func() {
			fmt.Fprintf(stderr, "usage: %s %s\n", fs.Name(), sub.synopsis)
			fs.PrintDefaults()
		}
		return sub.run(&cmd{fs: fs, stdin: stdin, stdout: stdout, stderr: stderr}, args[1:])
	}
	fmt.Fprintln(stderr, "usage: spacestat COMMAND [flags] [args] | spacestat -version\ncommands:")
	for _, sub := range subcommands {
		fmt.Fprintf(stderr, "  %s %s\n", sub.name, sub.synopsis)
	}
	return 2
}

// parse parses the subcommand's flags and checks that between min and
// max positional arguments remain (max < 0: no upper bound). On false
// the usage has been printed and the subcommand exits 2.
func (c *cmd) parse(args []string, min, max int) bool {
	if err := c.fs.Parse(args); err != nil {
		return false
	}
	if n := c.fs.NArg(); n < min || (max >= 0 && n > max) {
		c.fs.Usage()
		return false
	}
	return true
}

// fail prints err after the subcommand's name on stderr and returns
// code.
func (c *cmd) fail(code int, err error) int {
	fmt.Fprintf(c.stderr, "%s: %v\n", c.fs.Name(), err)
	return code
}

// open opens an input argument, "-" meaning stdin, and returns it with
// the name summaries and errors show for it.
func (c *cmd) open(name string) (io.ReadCloser, string, error) {
	if name == "-" {
		return io.NopCloser(c.stdin), "stdin", nil
	}
	f, err := os.Open(name)
	return f, name, err
}
