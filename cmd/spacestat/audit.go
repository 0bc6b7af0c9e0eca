package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"spacebooking/internal/server"
	"spacebooking/internal/trace"
)

// runAudit is `spacestat audit`: one audit log, validated and
// summarised.
func runAudit(c *cmd, args []string) int {
	minRecords := c.fs.Int("min", 1, "fail unless the log holds at least this many records")
	jsonOut := c.fs.Bool("json", false, "emit the summary as JSON (same content as the human output)")
	if !c.parse(args, 1, 1) {
		return 2
	}
	in, name, err := c.open(c.fs.Arg(0))
	if err != nil {
		return c.fail(1, err)
	}
	defer in.Close()

	sum, err := summarizeAudit(name, in)
	if err != nil {
		return c.fail(1, err)
	}
	if sum.Records < *minRecords {
		return c.fail(1, fmt.Errorf("%s: %d records, need at least %d", name, sum.Records, *minRecords))
	}

	if *jsonOut {
		enc := json.NewEncoder(c.stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return c.fail(1, err)
		}
		return 0
	}
	printAudit(c.stdout, sum)
	return 0
}

// summarizeAudit aggregates one audit stream without holding it.
func summarizeAudit(name string, in io.Reader) (*auditSummary, error) {
	sum := &auditSummary{Source: name, Outcomes: map[string]int{}}
	phases := map[string]*phaseAgg{}
	var order []string
	err := trace.EachLine(in, func(rec server.AuditRecord) error {
		if rec.Outcome == "" {
			return errors.New("record without outcome")
		}
		sum.Records++
		sum.Outcomes[rec.Outcome]++
		if !rec.Sampled {
			return nil
		}
		sum.Sampled++
		for _, sp := range rec.Phases {
			agg := phases[sp.Name]
			if agg == nil {
				agg = &phaseAgg{}
				phases[sp.Name] = agg
				order = append(order, sp.Name)
			}
			ns := sp.DurNs()
			agg.totalNs += ns
			agg.maxNs = max(agg.maxNs, ns)
			agg.count++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	sort.Slice(order, func(i, j int) bool { return phases[order[i]].totalNs > phases[order[j]].totalNs })
	for _, phase := range order {
		a := phases[phase]
		sum.Phases = append(sum.Phases, phaseSummary{
			Name:   phase,
			MeanMs: float64(a.totalNs) / float64(a.count) / 1e6,
			MaxMs:  float64(a.maxNs) / 1e6,
			Spans:  a.count,
		})
	}
	return sum, nil
}

// printAudit renders the summary.
func printAudit(w io.Writer, sum *auditSummary) {
	fmt.Fprintf(w, "%s: %d records, %d sampled\n", sum.Source, sum.Records, sum.Sampled)
	keys := make([]string, 0, len(sum.Outcomes))
	for k := range sum.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-12s %d\n", k, sum.Outcomes[k])
	}
	if len(sum.Phases) > 0 {
		fmt.Fprintf(w, "phases (over sampled records):\n")
		fmt.Fprintf(w, "  %-16s %10s %10s %8s\n", "phase", "mean_ms", "max_ms", "spans")
		for _, p := range sum.Phases {
			fmt.Fprintf(w, "  %-16s %10.3f %10.3f %8d\n", p.Name, p.MeanMs, p.MaxMs, p.Spans)
		}
	}
}

// auditSummary is the -json output: the same content as the human
// summary, one object per run.
type auditSummary struct {
	Source   string         `json:"source"`
	Records  int            `json:"records"`
	Sampled  int            `json:"sampled"`
	Outcomes map[string]int `json:"outcomes"`
	Phases   []phaseSummary `json:"phases,omitempty"`
}

type phaseSummary struct {
	Name   string  `json:"name"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
	Spans  int64   `json:"spans"`
}

// phaseAgg accumulates one phase's spans; it exists only once a span
// has been added, so count is never 0.
type phaseAgg struct {
	totalNs int64
	maxNs   int64
	count   int64
}
