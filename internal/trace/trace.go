// Package trace provides a structured event log for simulation runs:
// one JSON line per admission decision plus periodic network snapshots.
// Operators (and the repository's own debugging sessions) use it to
// answer questions the aggregate metrics cannot — "which pair's requests
// were priced out around minute 200?", "which satellites carried that
// burst?".
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// EventKind labels a trace record.
type EventKind string

// Record kinds.
const (
	// KindDecision records one request's admission outcome.
	KindDecision EventKind = "decision"
	// KindSnapshot records periodic network health.
	KindSnapshot EventKind = "snapshot"
	// KindRunInfo records run metadata (first line of every trace).
	KindRunInfo EventKind = "run_info"
	// KindRequest records one admitted request's full input (endpoints,
	// window, demand, valuation, class) — the record replay reconstructs
	// the stream from. Emitted before the matching KindDecision when a
	// run records with sim.RunConfig.RecordRequests.
	KindRequest EventKind = "request"
)

// Record is one trace line. Fields are a union across kinds; unused
// fields are omitted from the JSON.
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

	// Decision fields (KindDecision), shared by KindRequest.
	RequestID int     `json:"request_id,omitempty"`
	Arrival   int     `json:"arrival_slot,omitempty"`
	Start     int     `json:"start_slot,omitempty"`
	End       int     `json:"end_slot,omitempty"`
	RateMbps  float64 `json:"rate_mbps,omitempty"`
	Valuation float64 `json:"valuation,omitempty"`
	Accepted  bool    `json:"accepted"`
	Price     float64 `json:"price,omitempty"`
	Reason    string  `json:"reason,omitempty"`
	TotalHops int     `json:"total_hops,omitempty"`

	// Request fields (KindRequest): the endpoints and class that,
	// together with the shared window/demand fields above, reconstruct
	// the exact workload.Request for replay. Kinds are "ground" or
	// "space"; a zero index is omitted from the JSON and recovered as 0
	// on read.
	SrcKind  string `json:"src_kind,omitempty"`
	SrcIndex int    `json:"src_index,omitempty"`
	DstKind  string `json:"dst_kind,omitempty"`
	DstIndex int    `json:"dst_index,omitempty"`
	Class    string `json:"class,omitempty"`

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
// tooling and the package's own tests.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	if err := EachLine(r, func(rec Record) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}

// Summary aggregates a decision trace for quick inspection.
type Summary struct {
	Total     int
	Accepted  int
	Rejected  int
	Revenue   float64
	ByReason  map[string]int
	Snapshots int
	// Requests counts KindRequest records (non-zero only for traces
	// recorded with request replay enabled).
	Requests int
}

// Summarize folds a record stream into counts.
func Summarize(records []Record) Summary {
	s := Summary{ByReason: make(map[string]int)}
	for _, r := range records {
		switch r.Kind {
		case KindDecision:
			s.Total++
			if r.Accepted {
				s.Accepted++
				s.Revenue += r.Price
			} else {
				s.Rejected++
				s.ByReason[r.Reason]++
			}
		case KindSnapshot:
			s.Snapshots++
		case KindRequest:
			s.Requests++
		}
	}
	return s
}
