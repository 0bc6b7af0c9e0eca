// Command auditstat validates and summarises a spaced admission audit
// log (the JSONL stream written by spaced -audit-log).
//
// It checks that every line parses as one audit record — a truncated or
// interleaved line fails the run, which is what makes it useful as the
// CI gate behind `make trace-smoke` — then prints per-outcome counts,
// sampling coverage, and a per-phase duration table aggregated over the
// sampled records.
//
// Usage:
//
//	auditstat audit.jsonl
//	auditstat -min 1 audit.jsonl       # fail unless at least 1 record
//	auditstat -json audit.jsonl       # machine-readable summary
//	cat audit.jsonl | auditstat -
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"spacebooking/internal/buildinfo"
	"spacebooking/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	minRecords := flag.Int("min", 1, "fail unless the log holds at least this many records")
	jsonOut := flag.Bool("json", false, "emit the summary as JSON (same content as the human output)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.Line("auditstat"))
		return 0
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: auditstat [-min N] [-json] <audit.jsonl | ->")
		return 2
	}

	var in io.Reader = os.Stdin
	name := flag.Arg(0)
	if name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "auditstat: %v\n", err)
			return 1
		}
		defer f.Close()
		in = f
	} else {
		name = "stdin"
	}

	sum, err := summarize(name, in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "auditstat: %v\n", err)
		return 1
	}
	if sum.Records < *minRecords {
		fmt.Fprintf(os.Stderr, "auditstat: %s: %d records, need at least %d\n", name, sum.Records, *minRecords)
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fmt.Fprintf(os.Stderr, "auditstat: %v\n", err)
			return 1
		}
		return 0
	}
	printHuman(os.Stdout, sum)
	return 0
}

// summarize aggregates one audit stream.
func summarize(name string, in io.Reader) (*summary, error) {
	outcomes := map[string]int{}
	phases := map[string]*phaseAgg{}
	var order []string
	records, sampled, lineNo := 0, 0, 0

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec server.AuditRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: invalid record: %v", name, lineNo, err)
		}
		if rec.Outcome == "" {
			return nil, fmt.Errorf("%s:%d: record without outcome", name, lineNo)
		}
		records++
		outcomes[rec.Outcome]++
		if !rec.Sampled {
			continue
		}
		sampled++
		for _, sp := range rec.Phases {
			agg := phases[sp.Name]
			if agg == nil {
				agg = &phaseAgg{}
				phases[sp.Name] = agg
				order = append(order, sp.Name)
			}
			agg.add(sp.DurNs())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %v", name, err)
	}

	sort.Slice(order, func(i, j int) bool { return phases[order[i]].totalNs > phases[order[j]].totalNs })

	sum := &summary{
		Source:   name,
		Records:  records,
		Sampled:  sampled,
		Outcomes: outcomes,
	}
	for _, nameKey := range order {
		a := phases[nameKey]
		sum.Phases = append(sum.Phases, phaseSummary{
			Name:   nameKey,
			MeanMs: a.meanMs(),
			MaxMs:  float64(a.maxNs) / 1e6,
			Spans:  a.count,
		})
	}
	return sum, nil
}

// printHuman renders the summary.
func printHuman(w io.Writer, sum *summary) {
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

// summary is the -json output: the same content as the human summary,
// one object per run.
type summary struct {
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

type phaseAgg struct {
	totalNs int64
	maxNs   int64
	count   int64
}

func (a *phaseAgg) add(ns int64) {
	a.totalNs += ns
	a.count++
	if ns > a.maxNs {
		a.maxNs = ns
	}
}

func (a *phaseAgg) meanMs() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.totalNs) / float64(a.count) / 1e6
}
