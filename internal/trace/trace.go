// Package trace is the decision log: one JSON line per admission
// decision plus periodic network snapshots. `spacebench run -trace` and
// `spaced -audit-log` write the same decision line, so either file
// answers the questions aggregate metrics cannot — "which pair's requests
// were priced out around minute 200?" — and either replays to the same
// decisions (scenario.RequestsFromTrace).
package trace

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"spacebooking/internal/obs"
)

// EventKind labels a trace record.
type EventKind string

// Record kinds.
const (
	// KindDecision records one request's admission outcome.
	KindDecision EventKind = "decision"
	// KindSnapshot records periodic network health.
	KindSnapshot EventKind = "snapshot"
	// KindRunInfo records run metadata (first line of every batch trace).
	KindRunInfo EventKind = "run_info"
)

// Record is one trace line. Fields are a union across kinds; a field a
// kind does not use is omitted from the JSON, and a zero value is omitted
// too and read back as zero. Each field has one meaning wherever it
// appears.
type Record struct {
	Kind EventKind `json:"kind"`

	// Run metadata (KindRunInfo).
	Algorithm string  `json:"algorithm,omitempty"`
	Scale     string  `json:"scale,omitempty"`
	Rate      float64 `json:"rate,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	// Spec names the scenario spec that drove the run (empty for the
	// flat paper workload); replays echo the recorded name.
	Spec string `json:"spec,omitempty"`

	// A decision (KindDecision) is built by sim.DecisionRecord alone. It
	// holds the request as the engine admitted it, exact to the float bit,
	// so replay rebuilds the same workload.Request: the engine's request
	// id (the server id for a served booking), the arrival slot and active
	// window (as the server resolved them), the per-slot demand (flat, or
	// one entry per active slot), the valuation, the endpoints and the
	// class. Then the decision: whether it was accepted, the price quoted
	// (also on a rejection that quoted one), the rejection reason, and the
	// plan's hops summed over its slots.
	RequestID  int       `json:"request_id,omitempty"`
	Arrival    int       `json:"arrival_slot,omitempty"`
	Start      int       `json:"start_slot,omitempty"`
	End        int       `json:"end_slot,omitempty"`
	RateMbps   float64   `json:"rate_mbps,omitempty"`
	RateVector []float64 `json:"rate_vector,omitempty"`
	Valuation  float64   `json:"valuation,omitempty"`
	Accepted   bool      `json:"accepted"`
	Price      float64   `json:"price,omitempty"`
	Reason     string    `json:"reason,omitempty"`
	TotalHops  int       `json:"total_hops,omitempty"`
	// Endpoint kinds are "ground" or "space".
	SrcKind  string `json:"src_kind,omitempty"`
	SrcIndex int    `json:"src_index,omitempty"`
	DstKind  string `json:"dst_kind,omitempty"`
	DstIndex int    `json:"dst_index,omitempty"`
	Class    string `json:"class,omitempty"`
	// Seq is the engine's 1-based commit index: the order the decisions
	// were made in, whatever order the lines were written in. A served
	// booking the engine never saw (expired, horizon-exhausted, error,
	// overloaded, draining) has none.
	Seq int `json:"seq,omitempty"`

	// Serving fields, set on a spaced audit log only. ClientID is the
	// client-assigned request_id; TSUnixNs the wall time the request
	// entered the server; Outcome the reservation status (accepted,
	// rejected, error, overloaded or draining). The four counts are the
	// engine work the admission took, TotalNs is ingress to record, and
	// Phases — present when Sampled — is the request's phase timeline
	// relative to TSUnixNs.
	ClientID     string          `json:"client_id,omitempty"`
	TSUnixNs     int64           `json:"ts_unix_ns,omitempty"`
	Outcome      string          `json:"outcome,omitempty"`
	Searches     int64           `json:"searches,omitempty"`
	PrunedLabels int64           `json:"pruned_labels,omitempty"`
	HeapPops     int64           `json:"heap_pops,omitempty"`
	DeficitWalks int64           `json:"deficit_walks,omitempty"`
	TotalNs      int64           `json:"total_ns,omitempty"`
	Sampled      bool            `json:"sampled,omitempty"`
	Phases       []obs.TraceSpan `json:"phases,omitempty"`

	// Snapshot fields (KindSnapshot).
	Slot      int `json:"slot,omitempty"`
	Depleted  int `json:"depleted,omitempty"`
	Congested int `json:"congested,omitempty"`
}

// Writer emits trace records as JSON lines. It is safe for sequential
// use within one run; a mutex guards against accidental sharing.
//
// Errors are never dropped: Emit returns the write error immediately,
// the first error is sticky (later Emits return it unchanged without
// writing), and Flush/Close resurface it — so a caller that only
// checks Close still sees a mid-run disk-full.
type Writer struct {
	mu    sync.Mutex
	under io.Writer
	buf   *bufio.Writer
	err   error
}

// NewWriter wraps an io.Writer (file, pipe, buffer). If the writer is
// also an io.Closer, Close closes it after the final flush.
func NewWriter(w io.Writer) *Writer {
	return &Writer{under: w, buf: bufio.NewWriter(w)}
}

// Emit writes one record and returns any marshal or write error. After
// the first error all writes are no-ops returning that same error,
// which also resurfaces from Flush and Close.
func (w *Writer) Emit(r Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	data, err := json.Marshal(r)
	if err != nil {
		w.err = fmt.Errorf("trace: marshal: %w", err)
		return w.err
	}
	if _, err := w.buf.Write(data); err != nil {
		w.err = fmt.Errorf("trace: write: %w", err)
		return w.err
	}
	if err := w.buf.WriteByte('\n'); err != nil {
		w.err = fmt.Errorf("trace: write: %w", err)
	}
	return w.err
}

// Err returns the sticky error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Flush drains the buffer and returns the first error encountered.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *Writer) flushLocked() error {
	if w.err != nil {
		return w.err
	}
	if err := w.buf.Flush(); err != nil {
		w.err = fmt.Errorf("trace: flush: %w", err)
	}
	return w.err
}

// Close flushes the buffer and closes the underlying writer (when it is
// an io.Closer), returning the first error from any stage. The sink is
// unusable afterwards.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	flushErr := w.flushLocked()
	if c, ok := w.under.(io.Closer); ok {
		if err := c.Close(); err != nil && flushErr == nil {
			flushErr = fmt.Errorf("trace: close: %w", err)
			w.err = flushErr
		}
	}
	return flushErr
}

// EachLine decodes a JSON-lines stream one record at a time and hands
// each to fn, so a long log is never held in memory. Blank lines — empty,
// or nothing but spaces, tabs and carriage returns — are skipped, and a
// line may hold up to 1 MiB. A malformed line, an error
// from fn or a read error stops the walk with the line number.
func EachLine[T any](r io.Reader, fn func(T) error) error {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for scanner.Scan() {
		line++
		if isBlank(scanner.Bytes()) {
			continue
		}
		var rec T
		if err := json.Unmarshal(scanner.Bytes(), &rec); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if err := fn(rec); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return fmt.Errorf("line %d: %w", line+1, err)
	}
	return nil
}

// isBlank reports whether a line holds nothing but JSON whitespace
// (newlines aside, which the scanner strips).
func isBlank(line []byte) bool { return len(bytes.Trim(line, " \t\r")) == 0 }

// Read parses a trace stream back into records, e.g. for analysis
// tooling and replay. A line whose kind is none of the three is an error,
// so a file from another tool fails by line number rather than reading
// as an empty trace.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	if err := EachLine(r, func(rec Record) error {
		switch rec.Kind {
		case KindRunInfo, KindDecision, KindSnapshot:
		default:
			return fmt.Errorf("unknown record kind %q", rec.Kind)
		}
		out = append(out, rec)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}

// reasonOther is the class of a rejection reason ClassifyReason does not
// recognise.
const reasonOther = "other"

// ClassifyReason maps an admission engine's rejection reason to a stable
// category: no-path, priced-out, energy-infeasible or other. It is
// the key of sim.Result.Rejections, of the sim.requests.rejected.*
// counters and of Summary.ByReason.
func ClassifyReason(reason string) string {
	switch {
	case strings.Contains(reason, "no feasible path"):
		return "no-path"
	case strings.Contains(reason, "exceeds valuation"):
		return "priced-out"
	case strings.Contains(reason, "energy infeasible"):
		return "energy-infeasible"
	default:
		return reasonOther
	}
}

// Summary aggregates a decision trace for quick inspection; the JSON
// form is `spacestat trace -json`.
type Summary struct {
	Total    int     `json:"total"`
	Accepted int     `json:"accepted"`
	Rejected int     `json:"rejected"`
	Revenue  float64 `json:"revenue"`
	// ByReason counts rejections by reason: an engine rejection under
	// its ClassifyReason class, a reason the serving layer gave itself
	// (expired, horizon-exhausted) as written, and a served booking
	// refused before the engine, which has no reason, under its outcome.
	ByReason  map[string]int `json:"by_reason"`
	Snapshots int            `json:"snapshots"`
	// Outcomes, Sampled and Phases are non-zero on an audit log only:
	// decisions by serving outcome, the decisions carrying a phase
	// timeline, and those timelines' spans per phase, largest total first.
	Outcomes map[string]int `json:"outcomes,omitempty"`
	Sampled  int            `json:"sampled,omitempty"`
	Phases   []PhaseStat    `json:"phases,omitempty"`
}

// PhaseStat summarises one serving phase over the sampled decisions.
type PhaseStat struct {
	Name   string  `json:"name"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
	Spans  int64   `json:"spans"`
}

// Summarize folds a record stream into counts.
func Summarize(records []Record) Summary {
	s := Summary{ByReason: make(map[string]int), Outcomes: make(map[string]int)}
	at, totalNs := map[string]int{}, map[string]int64{} // by phase name: index in s.Phases, span total
	for _, r := range records {
		switch r.Kind {
		case KindDecision:
			s.Total++
			if r.Accepted {
				s.Accepted++
				s.Revenue += r.Price
			} else {
				s.Rejected++
				key := ClassifyReason(r.Reason)
				if key == reasonOther {
					key = cmp.Or(r.Reason, r.Outcome)
				}
				s.ByReason[key]++
			}
			if r.Outcome != "" {
				s.Outcomes[r.Outcome]++
			}
			if r.Sampled {
				s.Sampled++
				for _, sp := range r.Phases {
					i, seen := at[sp.Name]
					if !seen {
						i = len(s.Phases)
						at[sp.Name] = i
						s.Phases = append(s.Phases, PhaseStat{Name: sp.Name})
					}
					ns := sp.DurNs()
					totalNs[sp.Name] += ns
					s.Phases[i].MaxMs = max(s.Phases[i].MaxMs, float64(ns)/1e6)
					s.Phases[i].Spans++
				}
			}
		case KindSnapshot:
			s.Snapshots++
		}
	}
	for i := range s.Phases {
		s.Phases[i].MeanMs = float64(totalNs[s.Phases[i].Name]) / float64(s.Phases[i].Spans) / 1e6
	}
	slices.SortFunc(s.Phases, func(a, b PhaseStat) int {
		return cmp.Or(cmp.Compare(totalNs[b.Name], totalNs[a.Name]), cmp.Compare(a.Name, b.Name))
	})
	return s
}
