// Command spacebench reproduces the paper's evaluation section (§VI) on
// one Environment: "run" makes a single run with one admission algorithm
// (optionally spec-driven, recorded or replayed), and each figure
// subcommand regenerates one figure; "all" runs the whole evaluation.
//
// Usage:
//
//	spacebench run [-scale small|medium|full]
//	        [-alg CEAR|SSP|ECARS|ERU|ERA|CEAR-NE|CEAR-AA|CEAR-LIN|CEAR-AD]
//	        [-rate R] [-seed N] [-valuation V] [-f1 F] [-f2 F]
//	        [-spec scenario.json] [-record] [-replay recorded.jsonl]
//	        [-trace decisions.jsonl] [-report run.json]
//	        [-debug-addr 127.0.0.1:6060]
//	spacebench [-scale small|medium|full] [-seed N] [-seeds K]
//	        [-parallel P] [-csv DIR] [-quiet] [-spec scenario.json]
//	        [-report run.json] [-debug-addr 127.0.0.1:6060] FIGURE
//	spacebench -version
//
// run prints the full result: welfare, revenue, rejection breakdown, and
// compact textual time series of the Fig. 7/8 metrics. -spec drives the
// run from a declarative scenario spec instead of the flat paper
// workload. -record (with -trace) writes every admitted request into the
// trace, making it a complete recording; -replay runs such a recording
// back through the engine, reproducing every decision, price and Result
// byte-identically.
//
// FIGURE is one of: fig6, fig7, fig8, fig9, ablate, adaptive,
// competitive, all. The extra "scenario" figure runs the -spec workload
// through the paper's five algorithms and tabulates welfare, acceptance
// and revenue.
//
// run defaults to -scale small; the figures default to "medium" —
// shape-preserving and minutes-fast. Use -scale full for the paper's
// exact §VI-A setting (1584 satellites, 384 minutes, 1761 ground sites,
// 223 EO satellites); expect a long run.
//
// Every input is checked before the environment is built. Usage errors
// (an unknown subcommand, a bad flag, the scenario figure without -spec)
// exit 2; other errors exit 1, and a run cancelled by SIGINT or SIGTERM
// exits 130.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"spacebooking/internal/buildinfo"
	"spacebooking/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "run" {
		return runSingle(args[1:], stdout, stderr)
	}
	return runFigure(args, stdout, stderr)
}

// shared holds the options the run and figure forms both take.
type shared struct {
	scale, spec, report, debugAddr string
	seed                           int64
	version                        bool
}

// newFlagSet returns a subcommand's flag set: ContinueOnError, output to
// stderr, with the six shared options declared at the form's default
// scale.
func (o *shared) newFlagSet(name, synopsis, scale string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s %s\n", name, synopsis)
		fs.PrintDefaults()
	}
	fs.StringVar(&o.scale, "scale", scale, "experiment scale: small, medium or full")
	fs.Int64Var(&o.seed, "seed", 101, "random seed (run: the workload's; figures: the single-run figures' base seed)")
	fs.StringVar(&o.spec, "spec", "", "scenario spec (JSON): drives run's workload; required by the scenario figure")
	fs.StringVar(&o.report, "report", "", "write a machine-readable JSON run report to this file")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /debug/pprof and /metrics.json on this address (e.g. 127.0.0.1:6060)")
	fs.BoolVar(&o.version, "version", false, "print version and exit")
	return fs
}

// parse parses args into fs and reports whether the subcommand goes on;
// when it does not, code is its exit code (2 on a flag error, 0 after
// printing -version).
func (o *shared) parse(fs *flag.FlagSet, args []string, stdout io.Writer) (code int, ok bool) {
	if err := fs.Parse(args); err != nil {
		return 2, false
	}
	if o.version {
		fmt.Fprintln(stdout, buildinfo.Line("spacebench"))
		return 0, false
	}
	return 0, true
}

// instrument creates the registry when -report or -debug-addr asks for
// its output, so plain runs keep the no-op fast path, and starts the
// debug server on -debug-addr. The caller closes a non-nil server.
func (o *shared) instrument(stdout io.Writer) (*obs.Registry, *obs.DebugServer, error) {
	if o.report == "" && o.debugAddr == "" {
		return nil, nil, nil
	}
	reg := obs.New()
	if o.debugAddr == "" {
		return reg, nil, nil
	}
	srv, err := obs.StartDebugServer(o.debugAddr, reg)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stdout, "debug server on http://%s/ (pprof, metrics.json)\n", srv.Addr())
	return reg, srv, nil
}

// fail prints err after the subcommand's name on stderr and returns
// code.
func fail(stderr io.Writer, name string, code int, err error) int {
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	return code
}
