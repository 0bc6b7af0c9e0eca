package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"spacebooking/internal/obs"
)

// gate is one lower-is-better threshold on a dotted key.
type gate struct {
	key string
	pct float64
}

// gateFlags collects repeatable -gate KEY=PCT flags.
type gateFlags []gate

func (g *gateFlags) String() string { return fmt.Sprintf("%v", []gate(*g)) }

func (g *gateFlags) Set(s string) error {
	key, pct, ok := strings.Cut(s, "=")
	if !ok || key == "" {
		return fmt.Errorf("want KEY=PCT, got %q", s)
	}
	frac, err := parsePct(pct)
	if err != nil {
		return err
	}
	*g = append(*g, gate{key: key, pct: frac})
	return nil
}

// parsePct reads "5%" or "0.05" as the fraction 0.05.
func parsePct(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil || math.IsNaN(v) || v < 0 {
		return 0, fmt.Errorf("invalid threshold %q (want e.g. 5%% or 0.05)", s)
	}
	if pct {
		v /= 100
	}
	return v, nil
}

// runDiff is `spacestat diff`: two run reports, compared and gated.
func runDiff(c *cmd, args []string) int {
	maxRegress := c.fs.String("max-regress", "5%", "regression threshold on wall-time quantities (empty disables)")
	quiet := c.fs.Bool("q", false, "print regressions only, not the full delta listing")
	var gates gateFlags
	c.fs.Var(&gates, "gate", "extra lower-is-better gate KEY=PCT (repeatable)")
	if !c.parse(args, 2, 2) {
		return 2
	}
	oldRep, err := obs.ReadReportFile(c.fs.Arg(0))
	if err != nil {
		return c.fail(2, err)
	}
	newRep, err := obs.ReadReportFile(c.fs.Arg(1))
	if err != nil {
		return c.fail(2, err)
	}
	// An explicit gate names a key both reports must hold: one that
	// could not be looked up would never fire.
	oldKeys, newKeys := keys(oldRep), keys(newRep)
	for _, g := range gates {
		for i, table := range []map[string]float64{oldKeys, newKeys} {
			if _, ok := lookup(table, g.key); !ok {
				return c.fail(2, fmt.Errorf("-gate %s: %s has no such key", g.key, c.fs.Arg(i)))
			}
		}
	}

	if !*quiet {
		printDiff(c.stdout, oldRep, newRep, oldKeys, newKeys)
	}

	allGates := gates
	if *maxRegress != "" {
		frac, err := parsePct(*maxRegress)
		if err != nil {
			return c.fail(2, err)
		}
		allGates = append(allGates, defaultTimeGates(oldKeys, newKeys, frac)...)
	}
	// The verdict keeps the name "obsdiff": stdout is what scripts grep.
	regressions := checkGates(oldKeys, newKeys, allGates)
	for _, r := range regressions {
		fmt.Fprintln(c.stdout, r)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(c.stdout, "obsdiff: %d regression(s)\n", len(regressions))
		return 1
	}
	fmt.Fprintf(c.stdout, "obsdiff: ok (%d gate(s) checked)\n", len(allGates))
	return 0
}

// keys flattens a report into every value it holds, each under the
// dotted name -gate takes: metrics.K, counters.K, gauges.K,
// histograms.NAME.{count,sum,min,max,mean,p50,p95,p99,p999},
// phases.NAME.{total_seconds,count}, timeseries.NAME.{last,total} and
// hotspots.NAME.total. The listing, the explicit gates and the default
// gates all read this one table.
func keys(rep *obs.Report) map[string]float64 {
	o := rep.Observability
	out := make(map[string]float64)
	for k, v := range rep.Metrics {
		out["metrics."+k] = v
	}
	for k, v := range o.Counters {
		out["counters."+k] = float64(v)
	}
	for k, v := range o.Gauges {
		out["gauges."+k] = v
	}
	for name, h := range o.Histograms {
		for field, v := range map[string]float64{
			"count": float64(h.Count), "sum": h.Sum, "min": h.Min, "max": h.Max,
			"mean": h.Mean, "p50": h.P50, "p95": h.P95, "p99": h.P99, "p999": h.P999,
		} {
			out["histograms."+name+"."+field] = v
		}
	}
	for _, p := range o.Phases {
		out["phases."+p.Name+".total_seconds"] = p.TotalSeconds
		out["phases."+p.Name+".count"] = float64(p.Count)
	}
	for name, ts := range o.TimeSeries {
		out["timeseries."+name+".last"] = ts.Last()
		out["timeseries."+name+".total"] = float64(ts.Total)
	}
	for name, tk := range o.TopK {
		out["hotspots."+name+".total"] = tk.Total
	}
	return out
}

// lookup resolves a gate key against a key table. A key the table lacks
// is tried as metrics.KEY, so a bare metric name (which may hold dots
// itself, like "rejected.no-path") addresses that metric.
func lookup(table map[string]float64, key string) (float64, bool) {
	if v, ok := table[key]; ok {
		return v, true
	}
	v, ok := table["metrics."+key]
	return v, ok
}

// defaultTimeGates builds the -max-regress gates over every wall-time
// key present in both tables: the mean and p95 of histograms whose name
// contains "seconds", every phase's total_seconds, and metrics whose key
// contains "seconds".
func defaultTimeGates(oldKeys, newKeys map[string]float64, frac float64) []gate {
	var gates []gate
	for key := range oldKeys {
		if _, ok := newKeys[key]; !ok {
			continue
		}
		section, rest, _ := strings.Cut(key, ".")
		timed := false
		switch section {
		case "histograms":
			timed = strings.Contains(rest, "seconds") && (strings.HasSuffix(rest, ".mean") || strings.HasSuffix(rest, ".p95"))
		case "phases":
			timed = strings.HasSuffix(rest, ".total_seconds")
		case "metrics":
			timed = strings.Contains(rest, "seconds")
		}
		if timed {
			gates = append(gates, gate{key: key, pct: frac})
		}
	}
	sort.Slice(gates, func(i, j int) bool { return gates[i].key < gates[j].key })
	return gates
}

// regression describes one gated value that got worse.
type regression struct {
	key      string
	old, new float64
	pct      float64 // allowed fraction
}

func (r regression) String() string {
	return fmt.Sprintf("REGRESSION %s: %s -> %s (%+.1f%% > %.1f%% allowed)",
		r.key, fmtVal(r.old), fmtVal(r.new), 100*relDelta(r.old, r.new), 100*r.pct)
}

// relDelta returns (newV-oldV)/oldV; growth from zero is +Inf, so any
// gate catches it. It is 0 when oldV is negative or a zero stays put or
// falls.
func relDelta(oldV, newV float64) float64 {
	switch {
	case oldV > 0:
		return (newV - oldV) / oldV
	case oldV == 0 && newV > 0:
		return math.Inf(1)
	}
	return 0
}

// checkGates evaluates every gate (lower is better; its key is in both
// tables) and returns the values whose relative growth exceeds the
// allowance.
func checkGates(oldKeys, newKeys map[string]float64, gates []gate) []regression {
	var out []regression
	for _, g := range gates {
		oldV, _ := lookup(oldKeys, g.key)
		newV, _ := lookup(newKeys, g.key)
		if relDelta(oldV, newV) > g.pct {
			out = append(out, regression{key: g.key, old: oldV, new: newV, pct: g.pct})
		}
	}
	return out
}

// fmtVal renders a value compactly.
func fmtVal(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// printDiff writes the config lines that differ, then every key of
// either report in lexical order under its gate name, one heading per
// section.
func printDiff(w io.Writer, oldRep, newRep *obs.Report, oldKeys, newKeys map[string]float64) {
	fmt.Fprintf(w, "old: %s (version %d)\n", oldRep.Tool, oldRep.Version)
	fmt.Fprintf(w, "new: %s (version %d)\n", newRep.Tool, newRep.Version)
	for _, key := range unionKeys(oldRep.Config, newRep.Config) {
		ov, on := oldRep.Config[key], newRep.Config[key]
		if fmt.Sprint(ov) != fmt.Sprint(on) {
			fmt.Fprintf(w, "config differs: %s: %v -> %v\n", key, ov, on)
		}
	}
	printRows(w, oldKeys, newKeys)
}

// printRows prints one aligned old -> new row per key, with a
// heading whenever the section (the key's first component) changes.
func printRows(w io.Writer, oldVals, newVals map[string]float64) {
	section := ""
	for _, key := range unionKeys(oldVals, newVals) {
		if s, _, _ := strings.Cut(key, "."); s != section {
			section = s
			fmt.Fprintf(w, "%s:\n", section)
		}
		ov, okOld := oldVals[key]
		nv, okNew := newVals[key]
		switch {
		case !okOld:
			fmt.Fprintf(w, "  %-48s (new) %s\n", key, fmtVal(nv))
		case !okNew:
			fmt.Fprintf(w, "  %-48s %s (gone)\n", key, fmtVal(ov))
		case ov == nv:
			fmt.Fprintf(w, "  %-48s %s\n", key, fmtVal(ov))
		default:
			fmt.Fprintf(w, "  %-48s %s -> %s (%+.1f%%)\n", key, fmtVal(ov), fmtVal(nv), 100*relDelta(ov, nv))
		}
	}
}

// unionKeys merges two maps' keys in lexical order.
func unionKeys[V any](a, b map[string]V) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var keys []string
	for k := range a {
		seen[k] = true
		keys = append(keys, k)
	}
	for k := range b {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
