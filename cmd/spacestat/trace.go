package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"spacebooking/internal/metrics"
	"spacebooking/internal/trace"
)

// runTrace is `spacestat trace`: one decision trace or audit log,
// validated and summarised.
func runTrace(c *cmd, args []string) int {
	minDecisions := c.fs.Int("min", 0, "fail unless the file holds at least this many decisions")
	jsonOut := c.fs.Bool("json", false, "print the counts as JSON instead (source, decisions, reasons, outcomes, phases)")
	if !c.parse(args, 1, 1) {
		return 2
	}
	in, name, err := c.open(c.fs.Arg(0))
	if err != nil {
		return c.fail(1, err)
	}
	defer in.Close()

	records, err := trace.Read(in)
	if err != nil {
		// A malformed line mid-stream is a data error, not a usage
		// error: name the input and pass the line-numbered cause on.
		return c.fail(1, fmt.Errorf("%s: %w", name, err))
	}
	summary := trace.Summarize(records)
	if summary.Total < *minDecisions {
		return c.fail(1, fmt.Errorf("%s: %d decisions, need at least %d", name, summary.Total, *minDecisions))
	}
	out := c.stdout
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Source string `json:"source"`
			trace.Summary
		}{name, summary}); err != nil {
			return c.fail(1, err)
		}
		return 0
	}
	if len(records) == 0 {
		fmt.Fprintln(out, "empty trace")
		return 0
	}

	if records[0].Kind == trace.KindRunInfo {
		info := records[0]
		fmt.Fprintf(out, "run: %s, rate %.3g req/min, seed %d\n", info.Algorithm, info.Rate, info.Seed)
	}

	fmt.Fprintf(out, "requests: %d total, %d accepted (%.1f%%), %d rejected\n",
		summary.Total, summary.Accepted,
		100*float64(summary.Accepted)/float64(max(1, summary.Total)), summary.Rejected)
	fmt.Fprintf(out, "revenue:  %.4g\n", summary.Revenue)

	if len(summary.ByReason) > 0 {
		fmt.Fprintln(out, "rejections by reason:")
		for _, r := range sortedKeys(summary.ByReason) {
			fmt.Fprintf(out, "  %-50.50s %d\n", r, summary.ByReason[r])
		}
	}

	// Price quantiles over accepted requests.
	var prices []float64
	var hops []float64
	var depleted, congested []int
	for _, r := range records {
		switch r.Kind {
		case trace.KindDecision:
			if r.Accepted {
				prices = append(prices, r.Price)
				hops = append(hops, float64(r.TotalHops))
			}
		case trace.KindSnapshot:
			depleted = append(depleted, r.Depleted)
			congested = append(congested, r.Congested)
		}
	}
	if len(prices) > 0 {
		fmt.Fprintf(out, "accepted price quantiles: p25 %s  p50 %s  p90 %s  max %s\n",
			metrics.FormatFloat(metrics.Quantile(prices, 0.25)),
			metrics.FormatFloat(metrics.Quantile(prices, 0.5)),
			metrics.FormatFloat(metrics.Quantile(prices, 0.9)),
			metrics.FormatFloat(metrics.Quantile(prices, 1)))
		mean, _ := metrics.MeanStd(hops)
		fmt.Fprintf(out, "mean plan hops: %s\n", metrics.FormatFloat(mean))
	}
	if len(depleted) > 0 {
		fmt.Fprintf(out, "depleted satellites over time:\n%s\n", metrics.Sparkline(depleted, 96))
		fmt.Fprintf(out, "congested links over time:\n%s\n", metrics.Sparkline(congested, 96))
	}
	printServing(out, summary)
	return 0
}

// printServing adds what only an audit log holds: outcome counts and the
// per-phase table over the sampled decisions.
func printServing(w io.Writer, s trace.Summary) {
	if len(s.Outcomes) == 0 {
		return
	}
	fmt.Fprintf(w, "outcomes (%d of %d sampled):\n", s.Sampled, s.Total)
	for _, k := range sortedKeys(s.Outcomes) {
		fmt.Fprintf(w, "  %-12s %d\n", k, s.Outcomes[k])
	}
	if len(s.Phases) > 0 {
		fmt.Fprintf(w, "phases (over sampled decisions):\n")
		fmt.Fprintf(w, "  %-16s %10s %10s %8s\n", "phase", "mean_ms", "max_ms", "spans")
		for _, p := range s.Phases {
			fmt.Fprintf(w, "  %-16s %10.3f %10.3f %8d\n", p.Name, p.MeanMs, p.MaxMs, p.Spans)
		}
	}
}

// sortedKeys returns a count map's keys in order.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
