package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"spacebooking/internal/obs"
)

// Per-request phase names recorded by the serving layer's trace
// recorder. The engine.* sub-phases are duration aggregates
// reconstructed from instrument counter deltas around the admission:
// search includes the pricing callbacks it invokes, so the reported
// engine.search span is search-minus-pricing and the three sub-phases
// are disjoint.
const (
	PhaseIngressParse  = "ingress.parse"
	PhaseQueueWait     = "queue.wait"
	PhaseBatchWait     = "batch.wait"
	PhaseEngineAdmit   = "engine.admit"
	PhaseEngineSearch  = "engine.search"
	PhaseEnginePricing = "engine.pricing"
	PhaseEngineCommit  = "engine.commit"
	PhaseRespond       = "respond"
)

// TraceConfig parameterises request-scoped tracing and the admission
// audit stream. Tracing is enabled when any of SampleRate, AuditPath or
// Enabled is set; disabled tracing costs the hot path nothing.
type TraceConfig struct {
	// SampleRate is the head-sampling probability in [0, 1] for
	// attaching the full phase timeline to an audit record. Shed,
	// rejected, errored and slow requests are always sampled.
	SampleRate float64
	// SlowThreshold forces sampling of any request whose total latency
	// reaches it. 0 disables slow-sampling.
	SlowThreshold time.Duration
	// AuditPath, when non-empty, appends one JSON line per admission
	// decision to this file (created/truncated at startup).
	AuditPath string
	// RecentN bounds the in-memory recent-record buffer behind
	// /debug/traces.json and /v1/requests/{id}/trace. Default 256.
	RecentN int
	// RingDepth bounds the async sink channel between deciders and the
	// single writer goroutine; a full ring drops records (counted on
	// server.trace.dropped) rather than blocking admission. Default 1024.
	RingDepth int
	// Enabled force-enables tracing even with a zero sample rate and no
	// audit file (records still reach the recent buffer).
	Enabled bool
}

// enabled reports whether any tracing surface is requested.
func (tc TraceConfig) enabled() bool {
	return tc.Enabled || tc.SampleRate > 0 || tc.AuditPath != ""
}

// SLOConfig parameterises the serving layer's per-class SLO tracking.
type SLOConfig struct {
	// LatencyObjective is the admit-latency objective (enqueue to
	// decision). Default 25ms.
	LatencyObjective time.Duration
	// LatencyTarget is the required fraction of requests meeting the
	// objective. Default 0.99.
	LatencyTarget float64
	// AvailabilityTarget is the required fraction of requests that are
	// not shed or errored. Default 0.999.
	AvailabilityTarget float64
}

// AuditRecord is one admission decision in the audit stream: the
// decision itself, the engine work it took (instrument counter deltas,
// exact because the engine is single-writer), and — when sampled — the
// request's full phase timeline. Records are immutable once emitted.
type AuditRecord struct {
	ID       int64  `json:"id"`
	ClientID string `json:"client_id,omitempty"`
	// TSUnixNs is the wall time the request entered the server.
	TSUnixNs int64   `json:"ts_unix_ns"`
	Outcome  string  `json:"outcome"` // accepted|rejected|error|overloaded|draining
	Reason   string  `json:"reason,omitempty"`
	Price    float64 `json:"price,omitempty"`
	Hops     int     `json:"hops,omitempty"`

	ArrivalSlot int `json:"arrival_slot"`
	StartSlot   int `json:"start_slot"`
	EndSlot     int `json:"end_slot"`

	// Engine work attributable to this request.
	Searches     int64 `json:"searches"`
	PrunedLabels int64 `json:"pruned_labels"`
	HeapPops     int64 `json:"heap_pops"`
	DeficitWalks int64 `json:"deficit_walks"`

	// TotalNs is ingress to emission; per-phase nanos live in Phases.
	TotalNs int64 `json:"total_ns"`
	// Sampled marks records carrying the phase timeline.
	Sampled bool            `json:"sampled"`
	Phases  []obs.TraceSpan `json:"phases,omitempty"`
}

// engineProbe holds the instrument counters the engine goroutine reads
// as before/after deltas around each admission. All handles are
// nil-safe: without a registry every delta is zero but tracing still
// produces records and wall-clock phases.
type engineProbe struct {
	searches  *obs.Counter
	pruned    *obs.Counter
	heapPops  *obs.Counter
	walks     *obs.Counter
	searchNs  *obs.Counter
	pricingNs *obs.Counter
	commitNs  *obs.Counter
}

// newEngineProbe resolves the counter handles by name; these are the
// same counters the state's instruments write (same registry, same
// name), so deltas around Admit are exact on the single-writer engine
// goroutine.
func newEngineProbe(reg *obs.Registry) engineProbe {
	return engineProbe{
		searches:  reg.Counter("core.slot_searches"),
		pruned:    reg.Counter("graph.fastpath.pruned_labels"),
		heapPops:  reg.Counter("graph.dijkstra.heap_pops"),
		walks:     reg.Counter("energy.deficit_walks"),
		searchNs:  reg.Counter("graph.search.nanos"),
		pricingNs: reg.Counter("energy.pricing.nanos"),
		commitNs:  reg.Counter("netstate.commit.nanos"),
	}
}

// probeSample is one reading of the probed counters.
type probeSample struct {
	searches, pruned, heapPops, walks int64
	searchNs, pricingNs, commitNs     int64
}

func (p engineProbe) read() probeSample {
	return probeSample{
		searches:  p.searches.Value(),
		pruned:    p.pruned.Value(),
		heapPops:  p.heapPops.Value(),
		walks:     p.walks.Value(),
		searchNs:  p.searchNs.Value(),
		pricingNs: p.pricingNs.Value(),
		commitNs:  p.commitNs.Value(),
	}
}

// sub returns the per-request delta a - b.
func (a probeSample) sub(b probeSample) probeSample {
	return probeSample{
		searches:  a.searches - b.searches,
		pruned:    a.pruned - b.pruned,
		heapPops:  a.heapPops - b.heapPops,
		walks:     a.walks - b.walks,
		searchNs:  a.searchNs - b.searchNs,
		pricingNs: a.pricingNs - b.pricingNs,
		commitNs:  a.commitNs - b.commitNs,
	}
}

// auditSink is the bounded async record pipeline: deciders emit without
// blocking into a ring channel, one writer goroutine appends to the
// JSONL file (if configured) and the in-memory recent buffer. Close
// drains the channel and flushes the file, so a graceful drain never
// truncates records.
type auditSink struct {
	ch   chan *AuditRecord
	done chan struct{}

	// mu guards closed against emit's channel send, so Close can close
	// the channel without racing a sender.
	mu     sync.RWMutex
	closed bool

	f  *os.File
	bw *bufio.Writer
	// writeErr is set by the writer goroutine and read after done.
	writeErr error

	recentMu sync.RWMutex
	recent   []*AuditRecord // ring of the last cap(recent) records
	next     int
	filled   bool

	ctrRecords *obs.Counter
	ctrSampled *obs.Counter
	ctrDropped *obs.Counter
}

// newAuditSink opens the audit file (if any) and starts the writer.
func newAuditSink(tc TraceConfig, reg *obs.Registry) (*auditSink, error) {
	ring := tc.RingDepth
	if ring <= 0 {
		ring = 1024
	}
	recentN := tc.RecentN
	if recentN <= 0 {
		recentN = 256
	}
	a := &auditSink{
		ch:         make(chan *AuditRecord, ring),
		done:       make(chan struct{}),
		recent:     make([]*AuditRecord, recentN),
		ctrRecords: reg.Counter("server.trace.records"),
		ctrSampled: reg.Counter("server.trace.sampled"),
		ctrDropped: reg.Counter("server.trace.dropped"),
	}
	if tc.AuditPath != "" {
		f, err := os.Create(tc.AuditPath)
		if err != nil {
			return nil, fmt.Errorf("server: audit log: %w", err)
		}
		a.f = f
		a.bw = bufio.NewWriter(f)
	}
	go a.loop()
	return a, nil
}

// emit hands one record to the writer without ever blocking admission:
// a full ring (or a closed sink) drops the record and counts the drop.
func (a *auditSink) emit(rec *AuditRecord) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.closed {
		a.ctrDropped.Inc()
		return
	}
	select {
	case a.ch <- rec:
	default:
		a.ctrDropped.Inc()
	}
}

// loop is the single writer: recent buffer, then JSONL.
func (a *auditSink) loop() {
	defer close(a.done)
	var enc *json.Encoder
	if a.bw != nil {
		enc = json.NewEncoder(a.bw)
	}
	for rec := range a.ch {
		a.ctrRecords.Inc()
		if rec.Sampled {
			a.ctrSampled.Inc()
		}
		a.remember(rec)
		if enc != nil && a.writeErr == nil {
			if err := enc.Encode(rec); err != nil {
				a.writeErr = fmt.Errorf("server: audit log write: %w", err)
			}
		}
	}
}

// remember inserts the record into the recent ring.
func (a *auditSink) remember(rec *AuditRecord) {
	a.recentMu.Lock()
	a.recent[a.next] = rec
	a.next++
	if a.next == len(a.recent) {
		a.next = 0
		a.filled = true
	}
	a.recentMu.Unlock()
}

// Recent returns up to n records, newest first.
func (a *auditSink) Recent(n int) []*AuditRecord {
	a.recentMu.RLock()
	defer a.recentMu.RUnlock()
	size := a.next
	if a.filled {
		size = len(a.recent)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]*AuditRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, a.recent[(a.next-i+len(a.recent))%len(a.recent)])
	}
	return out
}

// find returns the newest record matching the predicate.
func (a *auditSink) find(match func(*AuditRecord) bool) *AuditRecord {
	a.recentMu.RLock()
	defer a.recentMu.RUnlock()
	size := a.next
	if a.filled {
		size = len(a.recent)
	}
	for i := 1; i <= size; i++ {
		if rec := a.recent[(a.next-i+len(a.recent))%len(a.recent)]; match(rec) {
			return rec
		}
	}
	return nil
}

// Close stops intake, drains the ring, flushes and closes the file.
// Idempotent; later emits are dropped (and counted), not lost silently.
func (a *auditSink) Close() error {
	a.mu.Lock()
	alreadyClosed := a.closed
	a.closed = true
	a.mu.Unlock()
	if !alreadyClosed {
		close(a.ch)
	}
	<-a.done
	if !alreadyClosed && a.bw != nil {
		if err := a.bw.Flush(); err != nil && a.writeErr == nil {
			a.writeErr = fmt.Errorf("server: audit log flush: %w", err)
		}
		if err := a.f.Close(); err != nil && a.writeErr == nil {
			a.writeErr = fmt.Errorf("server: audit log close: %w", err)
		}
	}
	return a.writeErr
}
