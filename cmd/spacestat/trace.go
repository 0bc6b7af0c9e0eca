package main

import (
	"fmt"
	"sort"

	"spacebooking/internal/metrics"
	"spacebooking/internal/trace"
)

// runTrace is `spacestat trace`: one decision trace, summarised.
func runTrace(c *cmd, args []string) int {
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
	out := c.stdout
	if len(records) == 0 {
		fmt.Fprintln(out, "empty trace")
		return 0
	}

	if records[0].Kind == trace.KindRunInfo {
		info := records[0]
		fmt.Fprintf(out, "run: %s, rate %.3g req/min, seed %d\n", info.Algorithm, info.Rate, info.Seed)
	}

	summary := trace.Summarize(records)
	fmt.Fprintf(out, "requests: %d total, %d accepted (%.1f%%), %d rejected\n",
		summary.Total, summary.Accepted,
		100*float64(summary.Accepted)/float64(max(1, summary.Total)), summary.Rejected)
	fmt.Fprintf(out, "revenue:  %.4g\n", summary.Revenue)

	if len(summary.ByReason) > 0 {
		fmt.Fprintln(out, "rejections by reason:")
		reasons := make([]string, 0, len(summary.ByReason))
		for r := range summary.ByReason {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
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
	return 0
}
