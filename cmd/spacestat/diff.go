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
	for _, g := range gates {
		for i, rep := range []*obs.Report{oldRep, newRep} {
			if _, ok := lookup(rep, g.key); !ok {
				return c.fail(2, fmt.Errorf("-gate %s: %s has no such key", g.key, c.fs.Arg(i)))
			}
		}
	}

	if !*quiet {
		printDiff(c.stdout, oldRep, newRep)
	}

	allGates := gates
	if *maxRegress != "" {
		frac, err := parsePct(*maxRegress)
		if err != nil {
			return c.fail(2, err)
		}
		allGates = append(allGates, defaultTimeGates(oldRep, newRep, frac)...)
	}
	// The verdict keeps the name "obsdiff": stdout is what scripts grep.
	regressions := checkGates(oldRep, newRep, allGates)
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

// lookup resolves a dotted gate key against a report. A bare key is
// tried as metrics.KEY.
func lookup(rep *obs.Report, key string) (float64, bool) {
	section, rest, ok := strings.Cut(key, ".")
	if !ok {
		section, rest = "metrics", key
	}
	switch section {
	case "metrics":
		v, ok := rep.Metrics[rest]
		return v, ok
	case "counters":
		v, ok := rep.Observability.Counters[rest]
		return float64(v), ok
	case "histograms":
		name, field, ok := cutLast(rest)
		if !ok {
			return 0, false
		}
		h, exists := rep.Observability.Histograms[name]
		if !exists {
			return 0, false
		}
		switch field {
		case "count":
			return float64(h.Count), true
		case "sum":
			return h.Sum, true
		case "min":
			return h.Min, true
		case "max":
			return h.Max, true
		case "mean":
			return h.Mean, true
		case "p50":
			return h.P50, true
		case "p95":
			return h.P95, true
		case "p99":
			return h.P99, true
		case "p999":
			return h.P999, true
		}
		return 0, false
	case "phases":
		name, field, ok := cutLast(rest)
		if !ok {
			return 0, false
		}
		for _, p := range rep.Observability.Phases {
			if p.Name != name {
				continue
			}
			switch field {
			case "total_seconds":
				return p.TotalSeconds, true
			case "count":
				return float64(p.Count), true
			}
			return 0, false
		}
		return 0, false
	case "timeseries":
		name, field, ok := cutLast(rest)
		if !ok {
			return 0, false
		}
		ts, exists := rep.Observability.TimeSeries[name]
		if !exists {
			return 0, false
		}
		switch field {
		case "last":
			return ts.Last(), true
		case "total":
			return float64(ts.Total), true
		}
		return 0, false
	case "hotspots":
		name, field, ok := cutLast(rest)
		if !ok {
			return 0, false
		}
		tk, exists := rep.Observability.TopK[name]
		if !exists {
			return 0, false
		}
		if field == "total" {
			return tk.Total, true
		}
		return 0, false
	}
	// Unknown section: treat the whole key as a metric name (metric keys
	// like "rejected.no-path" contain dots themselves).
	v, ok := rep.Metrics[key]
	return v, ok
}

// cutLast splits "a.b.c" into ("a.b", "c").
func cutLast(s string) (string, string, bool) {
	i := strings.LastIndex(s, ".")
	if i <= 0 || i == len(s)-1 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

// timeLike reports whether an instrument name denotes wall time.
func timeLike(name string) bool { return strings.Contains(name, "seconds") }

// defaultTimeGates builds the -max-regress gates over every wall-time
// quantity present in both reports.
func defaultTimeGates(oldRep, newRep *obs.Report, frac float64) []gate {
	var gates []gate
	add := func(key string) {
		if _, ok := lookup(oldRep, key); !ok {
			return
		}
		if _, ok := lookup(newRep, key); !ok {
			return
		}
		gates = append(gates, gate{key: key, pct: frac})
	}
	for name := range oldRep.Observability.Histograms {
		if timeLike(name) {
			add("histograms." + name + ".mean")
			add("histograms." + name + ".p95")
		}
	}
	for _, p := range oldRep.Observability.Phases {
		add("phases." + p.Name + ".total_seconds")
	}
	for key := range oldRep.Metrics {
		if timeLike(key) {
			add("metrics." + key)
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
// reports) and returns the values whose relative growth exceeds the
// allowance.
func checkGates(oldRep, newRep *obs.Report, gates []gate) []regression {
	var out []regression
	for _, g := range gates {
		oldV, _ := lookup(oldRep, g.key)
		newV, _ := lookup(newRep, g.key)
		if relDelta(oldV, newV) > g.pct {
			out = append(out, regression{key: g.key, old: oldV, new: newV, pct: g.pct})
		}
	}
	return out
}

// fmtVal renders a value compactly.
func fmtVal(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// printDiff writes the full delta listing, section by section, union of
// both reports' keys in lexical order.
func printDiff(w io.Writer, oldRep, newRep *obs.Report) {
	fmt.Fprintf(w, "old: %s (version %d)\n", oldRep.Tool, oldRep.Version)
	fmt.Fprintf(w, "new: %s (version %d)\n", newRep.Tool, newRep.Version)
	for _, key := range unionKeys(oldRep.Config, newRep.Config) {
		ov, on := oldRep.Config[key], newRep.Config[key]
		if fmt.Sprint(ov) != fmt.Sprint(on) {
			fmt.Fprintf(w, "config differs: %s: %v -> %v\n", key, ov, on)
		}
	}

	printSection(w, "metrics", oldRep.Metrics, newRep.Metrics)

	oldC := make(map[string]float64, len(oldRep.Observability.Counters))
	for k, v := range oldRep.Observability.Counters {
		oldC[k] = float64(v)
	}
	newC := make(map[string]float64, len(newRep.Observability.Counters))
	for k, v := range newRep.Observability.Counters {
		newC[k] = float64(v)
	}
	printSection(w, "counters", oldC, newC)

	histRows := func(rep *obs.Report) map[string]float64 {
		out := make(map[string]float64)
		for name, h := range rep.Observability.Histograms {
			out[name+".mean"] = h.Mean
			out[name+".p50"] = h.P50
			out[name+".p95"] = h.P95
			out[name+".p99"] = h.P99
			out[name+".p999"] = h.P999
		}
		return out
	}
	printSection(w, "histogram quantiles", histRows(oldRep), histRows(newRep))

	phaseRows := func(rep *obs.Report) map[string]float64 {
		out := make(map[string]float64)
		for _, p := range rep.Observability.Phases {
			out[p.Name+".total_seconds"] = p.TotalSeconds
		}
		return out
	}
	printSection(w, "phases", phaseRows(oldRep), phaseRows(newRep))

	tsRows := func(rep *obs.Report) map[string]float64 {
		out := make(map[string]float64)
		for name, ts := range rep.Observability.TimeSeries {
			out[name+".last"] = ts.Last()
		}
		return out
	}
	printSection(w, "timeseries final values", tsRows(oldRep), tsRows(newRep))

	hotRows := func(rep *obs.Report) map[string]float64 {
		out := make(map[string]float64)
		for name, tk := range rep.Observability.TopK {
			out[name+".total"] = tk.Total
		}
		return out
	}
	printSection(w, "hotspot totals", hotRows(oldRep), hotRows(newRep))
}

// printSection prints one aligned old -> new listing.
func printSection(w io.Writer, title string, oldVals, newVals map[string]float64) {
	keys := unionKeys(oldVals, newVals)
	if len(keys) == 0 {
		return
	}
	fmt.Fprintf(w, "%s:\n", title)
	for _, key := range keys {
		ov, okOld := oldVals[key]
		nv, okNew := newVals[key]
		switch {
		case !okOld:
			fmt.Fprintf(w, "  %-40s (new) %s\n", key, fmtVal(nv))
		case !okNew:
			fmt.Fprintf(w, "  %-40s %s (gone)\n", key, fmtVal(ov))
		case ov == nv:
			fmt.Fprintf(w, "  %-40s %s\n", key, fmtVal(ov))
		default:
			fmt.Fprintf(w, "  %-40s %s -> %s (%+.1f%%)\n", key, fmtVal(ov), fmtVal(nv), 100*relDelta(ov, nv))
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
