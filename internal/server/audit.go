package server

import (
	"fmt"
	"os"
	"sync"
	"time"

	"spacebooking/internal/obs"
	"spacebooking/internal/trace"
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
// audit log. Tracing is enabled when any of SampleRate, AuditPath or
// Enabled is set; disabled tracing costs the hot path nothing.
type TraceConfig struct {
	// SampleRate is the head-sampling probability in [0, 1] for
	// attaching the full phase timeline to an audit record. Shed,
	// rejected, errored and slow requests are always sampled; a request
	// is slow when its total latency reaches SLOConfig.LatencyObjective.
	SampleRate float64
	// AuditPath, when non-empty, writes one decision record per booking
	// to this file (created/truncated at startup): the same JSON line a
	// `spacebench run -trace` file holds, plus the serving fields.
	AuditPath string
	// Enabled force-enables tracing even with a zero sample rate and no
	// audit file (records still reach the recent buffer).
	Enabled bool
}

// Bounds of the audit pipeline: the recent-record buffer behind
// /debug/traces.json and /v1/requests/{id}/trace, and the async ring
// between deciders and the single writer goroutine, where a full ring
// drops records (counted on server.trace.dropped) rather than blocking
// admission.
const (
	recentRecords = 256
	ringDepth     = 1024
)

// enabled reports whether any tracing surface is requested.
func (tc TraceConfig) enabled() bool {
	return tc.Enabled || tc.SampleRate > 0 || tc.AuditPath != ""
}

// SLOConfig parameterises the serving layer's per-class SLO tracking.
type SLOConfig struct {
	// LatencyObjective is the admit-latency objective (enqueue to
	// decision). Default 25ms. With tracing on, a request at least this
	// slow is always sampled.
	LatencyObjective time.Duration
}

// The SLO targets: the fraction of requests that must meet the latency
// objective, and the fraction that must be neither shed nor errored.
const (
	sloLatencyTarget      = 0.99
	sloAvailabilityTarget = 0.999
)

// AuditRecord is the audit log's line. It is the decision record every
// trace writes (sim.DecisionRecord) with the serving fields filled in;
// the name survives for the benchmark module, which reads the log by it.
type AuditRecord = trace.Record

// probed names the instrument counters the engine goroutine reads as
// before/after deltas around each admission, in probeSample's index
// order. They are the counters the state's instruments write (same
// registry, same name), so the deltas are exact on the single-writer
// engine goroutine; without a registry every delta is zero but tracing
// still produces records and wall-clock phases.
var probed = [...]string{
	probeSearches:  "core.slot_searches",
	probePruned:    "graph.fastpath.pruned_labels",
	probeHeapPops:  "graph.dijkstra.heap_pops",
	probeWalks:     "energy.deficit_walks",
	probeSearchNs:  "graph.search.nanos",
	probePricingNs: "energy.pricing.nanos",
	probeCommitNs:  "netstate.commit.nanos",
}

// Indices of a probeSample.
const (
	probeSearches = iota
	probePruned
	probeHeapPops
	probeWalks
	probeSearchNs
	probePricingNs
	probeCommitNs
)

// engineProbe holds the probed counters' (nil-safe) handles; a
// probeSample is one reading of them, or the delta of two.
type (
	engineProbe [len(probed)]*obs.Counter
	probeSample [len(probed)]int64
)

func newEngineProbe(reg *obs.Registry) (p engineProbe) {
	for i, name := range probed {
		p[i] = reg.Counter(name)
	}
	return p
}

func (p engineProbe) read() (s probeSample) {
	for i, c := range p {
		s[i] = c.Value()
	}
	return s
}

// sub returns the per-request delta a - b.
func (a probeSample) sub(b probeSample) probeSample {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// auditSink is the bounded async record pipeline: deciders emit without
// blocking into a ring channel, one writer goroutine appends to the
// in-memory recent buffer and the audit log (if configured). Close
// drains the channel and flushes the log, so a graceful drain never
// truncates records.
type auditSink struct {
	ch   chan *trace.Record
	done chan struct{}

	// mu guards closed against emit's channel send, so Close can close
	// the channel without racing a sender.
	mu     sync.RWMutex
	closed bool

	// log is nil without an audit file; its first error is sticky and
	// resurfaces from Close.
	log *trace.Writer

	recentMu sync.RWMutex
	recent   []*trace.Record // ring of the last recentRecords records
	next     int
	filled   bool

	ctrRecords *obs.Counter
	ctrSampled *obs.Counter
	ctrDropped *obs.Counter
}

// newAuditSink opens the audit file (if any) and starts the writer.
func newAuditSink(tc TraceConfig, reg *obs.Registry) (*auditSink, error) {
	a := &auditSink{
		ch:         make(chan *trace.Record, ringDepth),
		done:       make(chan struct{}),
		recent:     make([]*trace.Record, recentRecords),
		ctrRecords: reg.Counter("server.trace.records"),
		ctrSampled: reg.Counter("server.trace.sampled"),
		ctrDropped: reg.Counter("server.trace.dropped"),
	}
	if tc.AuditPath != "" {
		f, err := os.Create(tc.AuditPath)
		if err != nil {
			return nil, fmt.Errorf("server: audit log: %w", err)
		}
		a.log = trace.NewWriter(f)
	}
	go a.loop()
	return a, nil
}

// emit hands one record to the writer without ever blocking admission:
// a full ring (or a closed sink) drops the record and counts the drop.
func (a *auditSink) emit(rec *trace.Record) {
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

// loop is the single writer: recent buffer, then the log. A write error
// sticks in the trace.Writer, which Close reports.
func (a *auditSink) loop() {
	defer close(a.done)
	for rec := range a.ch {
		a.ctrRecords.Inc()
		if rec.Sampled {
			a.ctrSampled.Inc()
		}
		a.remember(rec)
		if a.log != nil {
			_ = a.log.Emit(*rec)
		}
	}
}

// remember inserts the record into the recent ring.
func (a *auditSink) remember(rec *trace.Record) {
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
func (a *auditSink) Recent(n int) []*trace.Record {
	a.recentMu.RLock()
	defer a.recentMu.RUnlock()
	size := a.next
	if a.filled {
		size = len(a.recent)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]*trace.Record, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, a.recent[(a.next-i+len(a.recent))%len(a.recent)])
	}
	return out
}

// find returns the newest record matching the predicate.
func (a *auditSink) find(match func(*trace.Record) bool) *trace.Record {
	for _, rec := range a.Recent(0) {
		if match(rec) {
			return rec
		}
	}
	return nil
}

// Close stops intake, drains the ring, flushes and closes the log.
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
	if a.log == nil {
		return nil
	}
	err := a.log.Err()
	if !alreadyClosed {
		err = a.log.Close()
	}
	if err != nil {
		return fmt.Errorf("server: audit log: %w", err)
	}
	return nil
}
