// Package server is the online booking service of the reproduction: it
// keeps one admission engine (sim.Engine) resident, advances a slot
// clock in (scaled) real time, and admits booking requests as they
// arrive instead of replaying a precomputed workload. The paper's CEAR
// mechanism is defined online — requests are priced and accepted
// irrevocably one at a time — and this package is the layer that serves
// that loop to network clients.
//
// Architecture:
//
//	HTTP handlers ──► bounded ingress queue ──► engine goroutine
//	   (many)         (backpressure: full =     (single writer of the
//	                   shed "overloaded")        one sim.Engine)
//
// Admission runs on the one engine goroutine, preserving the paper's
// sequential online model and the engine's single-writer contract; the
// HTTP layer's only job is to queue, wait, and shed. The engine is the
// same code path sim.Run uses, so a served request stream (clock at max
// speed) is bit-identical to a batch simulation of the same stream.
package server

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"spacebooking/internal/buildinfo"
	"spacebooking/internal/obs"
	"spacebooking/internal/router"
	"spacebooking/internal/sim"
	"spacebooking/internal/topology"
	"spacebooking/internal/trace"
	"spacebooking/internal/workload"
)

// Reservation statuses. A reservation is created "queued" and settles
// into exactly one terminal status.
const (
	StatusQueued   = "queued"
	StatusAccepted = "accepted"
	StatusRejected = "rejected"
	StatusError    = "error"
	// StatusOverloaded and StatusDraining are response-only statuses:
	// shed requests never get a reservation.
	StatusOverloaded = "overloaded"
	StatusDraining   = "draining"
)

// Rejection reasons produced by the serving layer itself (the engine's
// own reasons — "no-path", "priced-out", … — pass through unchanged).
const (
	// ReasonExpired marks a request whose active window had already
	// passed when the engine got to it (deadline expiry under a
	// real-time clock).
	ReasonExpired = "expired"
	// ReasonHorizonExhausted marks a request arriving after the slot
	// clock passed the topology horizon, or whose window starts at or
	// past it.
	ReasonHorizonExhausted = "horizon-exhausted"
)

// Config parameterises the booking service.
type Config struct {
	// Provider is the frozen topology the engine runs on. Required.
	Provider *topology.Provider
	// Run selects the algorithm, pricing and thresholds. Run.Workload is
	// never used to generate requests — it only configures the algorithm
	// (adaptive predictor rate) and supplies booking defaults (valuation,
	// rate bounds) echoed at /v1/config.
	Run sim.RunConfig
	// ClockRate is the slot-clock speed in simulated slots per wall
	// second (a paper slot is one simulated minute, so ClockRate 60
	// compresses an hour into a minute). <= 0 means as fast as possible:
	// the clock follows request arrival slots, the benchmarking and
	// replay mode.
	ClockRate float64
	// QueueDepth bounds the ingress queue; a full queue sheds with
	// StatusOverloaded instead of blocking. Default 256.
	QueueDepth int
	// BatchSize caps how many queued requests one engine pass admits
	// back-to-back (amortising scratch reuse across the batch).
	// Default 32.
	BatchSize int
	// Now is the wall clock, for tests. Default time.Now.
	Now func() time.Time
	// Shards selects nothing: the service runs one engine, and New
	// rejects any value but 0 or 1. The field survives only because
	// benchmark/run.go sets `Shards: 1` and is frozen in the PR that
	// removed the shard cluster; the next benchmark PR drops it there and
	// this declaration with it.
	Shards int
	// Trace configures request-scoped tracing and the admission audit
	// stream. The zero value disables tracing entirely.
	Trace TraceConfig
	// SLO configures per-class SLO tracking (always on; the zero value
	// applies the documented defaults).
	SLO SLOConfig
	// testGate, when non-nil, stalls the engine goroutine before every
	// batch until a value (or close) arrives — deterministic
	// backpressure and drain tests only.
	testGate chan struct{}
}

// Reservation is the materialised outcome of one booking request. Once
// the status is terminal the struct is immutable; handlers receive
// copies, never shared pointers into server state.
type Reservation struct {
	ID          int64   `json:"id"`
	Status      string  `json:"status"`
	Src         string  `json:"src"`
	Dst         string  `json:"dst"`
	ArrivalSlot int     `json:"arrival_slot"`
	StartSlot   int     `json:"start_slot"`
	EndSlot     int     `json:"end_slot"`
	RateMbps    float64 `json:"rate_mbps"`
	Valuation   float64 `json:"valuation"`
	Price       float64 `json:"price"`
	Reason      string  `json:"reason,omitempty"`
	TotalHops   int     `json:"total_hops"`
	// ClientRequestID echoes the client-assigned request_id, joining
	// reservations to client-side logs and audit records.
	ClientRequestID string `json:"client_request_id,omitempty"`
}

// pending.emitState values: the handler and the engine agree via CAS on
// who finalises (and emits the audit record for) a traced request, so
// every decision is audited exactly once.
const (
	emitWaiting   int32 = iota // handler still waiting on done
	emitDecided                // engine decided; handler finalises after responding
	emitAbandoned              // handler's client left; engine finalises
)

// pending is one ingress-queue entry: the normalised booking plus the
// completion signal its HTTP handler waits on.
type pending struct {
	id  int64
	src topology.Endpoint
	dst topology.Endpoint
	// explicit window from the client (nil = derive from the slot clock
	// at admission time).
	arrival *int
	start   *int
	end     *int
	dur     int
	rate    float64
	val     float64

	enqueued time.Time
	resv     Reservation
	done     chan struct{}

	// Tracing state (zero-valued when tracing is disabled).
	clientID    string
	rec         *obs.TraceRec
	qwSpan      int // queue.wait span index
	bwSpan      int // batch.wait span index
	eaSpan      int // engine.admit span index
	headSampled bool
	stats       probeSample
	// decision is the engine's decision record (sim.DecisionRecord, with
	// its seq), built on the engine goroutine; nil until the engine
	// decides, and for every booking it never sees.
	decision *trace.Record
	// emitState arbitrates the handler/engine emit handoff; written
	// before close(done), so the handler's post-done reads are ordered.
	emitState atomic.Int32
}

// Server is the long-running booking service.
type Server struct {
	cfg Config
	// eng is written to by the engine goroutine only (engineLoop); queue
	// is its bounded ingress.
	eng     *sim.Engine
	queue   chan *pending
	clock   *slotClock
	horizon int
	now     func() time.Time
	started time.Time

	// lifeMu guards draining and the queue close: enqueues hold it
	// shared, Shutdown exclusively, so close never races a send.
	lifeMu     sync.RWMutex
	draining   bool
	engineDone chan struct{}
	result     *sim.Result
	resultErr  error

	resvMu sync.RWMutex
	resvs  map[int64]Reservation
	nextID atomic.Int64

	// Instruments (nil-safe when Run.Obs is nil).
	gQueue     *obs.Gauge
	gQueueHW   *obs.Gauge
	ctrShed    *obs.Counter
	ctrExpired *obs.Counter
	ctrBatches *obs.Counter
	histAdmit  *obs.Histogram

	// SLO classes (always maintained; gauges are nil-safe).
	sloLatency *obs.SLOClass
	sloAvail   *obs.SLOClass

	// Tracing (all nil/zero when cfg.Trace is disabled).
	tracing   bool
	tracePool *obs.TracePool
	policy    obs.SamplePolicy
	sink      *auditSink
	probe     engineProbe
	// auditWG counts traced requests whose audit record has not been
	// emitted yet; Shutdown waits on it before flushing the sink so a
	// graceful drain never truncates the audit stream.
	auditWG sync.WaitGroup

	// Stats mirrors, so /v1/stats never touches engine internals from
	// another goroutine and reads the same with or without an obs
	// registry. The engine goroutine maintains the first four, enqueue
	// the last two.
	statTotal    atomic.Int64
	statAccepted atomic.Int64
	statRejected atomic.Int64
	statRevenue  atomic.Uint64 // math.Float64bits
	statQueueHW  atomic.Int64
	statShed     atomic.Int64
}

// New builds the engine and starts the engine goroutine and slot clock.
// The server is accepting bookings when New returns.
func New(cfg Config) (*Server, error) {
	if cfg.Provider == nil {
		return nil, fmt.Errorf("server: nil provider")
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 256
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("server: queue depth %d must be positive", cfg.QueueDepth)
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 32
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("server: batch size %d must be positive", cfg.BatchSize)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.SLO.LatencyObjective == 0 {
		cfg.SLO.LatencyObjective = 25 * time.Millisecond
	}
	if cfg.Shards != 0 && cfg.Shards != 1 {
		return nil, fmt.Errorf("server: %d shards requested, the service runs one engine", cfg.Shards)
	}
	eng, err := sim.NewEngine(cfg.Provider, cfg.Run)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	reg := cfg.Run.Obs
	s := &Server{
		cfg:        cfg,
		eng:        eng,
		queue:      make(chan *pending, cfg.QueueDepth),
		clock:      newSlotClock(cfg.ClockRate, cfg.Now()),
		horizon:    cfg.Provider.Horizon(),
		now:        cfg.Now,
		started:    cfg.Now(),
		engineDone: make(chan struct{}),
		resvs:      make(map[int64]Reservation),
		gQueue:     reg.Gauge("server.queue_depth"),
		gQueueHW:   reg.Gauge("server.queue_high_water"),
		ctrShed:    reg.Counter("server.shed"),
		ctrExpired: reg.Counter("server.expired"),
		ctrBatches: reg.Counter("server.batches"),
		histAdmit:  reg.Histogram("server.admit_latency", nil),
		sloLatency: obs.NewSLOClass(reg, "latency", cfg.SLO.LatencyObjective.Seconds(), sloLatencyTarget),
		sloAvail:   obs.NewSLOClass(reg, "availability", 0, sloAvailabilityTarget),
	}
	if cfg.Trace.enabled() {
		sink, err := newAuditSink(cfg.Trace, reg)
		if err != nil {
			return nil, err
		}
		s.tracing = true
		s.tracePool = obs.NewTracePool()
		s.policy = obs.SamplePolicy{
			Rate:   cfg.Trace.SampleRate,
			SlowNs: cfg.SLO.LatencyObjective.Nanoseconds(),
		}
		s.sink = sink
		s.probe = newEngineProbe(reg)
		eng.EnableTraceDetail()
	}
	go s.engineLoop()
	return s, nil
}

// engineLoop is the single writer of the engine: it takes one queued
// request, collects whatever else is already queued up to BatchSize
// without blocking, and admits the batch; once Shutdown closes the queue
// and it drains, it runs the engine's final sweep and publishes the
// result.
func (s *Server) engineLoop() {
	defer close(s.engineDone)
	batch := make([]*pending, 0, s.cfg.BatchSize)
	for p := range s.queue {
		if s.cfg.testGate != nil {
			<-s.cfg.testGate
		}
		batch = append(batch[:0], p)
	collect:
		for len(batch) < s.cfg.BatchSize {
			select {
			case more, ok := <-s.queue:
				if !ok {
					break collect
				}
				batch = append(batch, more)
			default:
				break collect
			}
		}
		s.runBatch(batch)
	}
	s.result, s.resultErr = s.eng.Finish()
}

// Algorithm returns the engine's algorithm display name.
func (s *Server) Algorithm() string { return s.eng.Algorithm() }

// Horizon returns the number of slots served.
func (s *Server) Horizon() int { return s.horizon }

// Slot returns the current slot of the service clock.
func (s *Server) Slot() int { return s.clock.now(s.now()) }

// errShed and errDraining are the enqueue outcomes the HTTP layer maps
// to StatusOverloaded and StatusDraining.
var (
	errShed     = fmt.Errorf("server: ingress queue full")
	errDraining = fmt.Errorf("server: draining")
)

// enqueue hands one pending booking to the engine loop without ever
// blocking: a full queue sheds immediately (backpressure), a draining
// server refuses.
func (s *Server) enqueue(p *pending) error {
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if s.draining {
		return errDraining
	}
	select {
	case s.queue <- p:
	default:
		s.ctrShed.Inc()
		s.statShed.Add(1)
		return errShed
	}
	depth := int64(len(s.queue))
	s.gQueue.Set(float64(depth))
	for {
		hw := s.statQueueHW.Load()
		if depth <= hw {
			break
		}
		if s.statQueueHW.CompareAndSwap(hw, depth) {
			s.gQueueHW.Set(float64(depth))
			break
		}
	}
	return nil
}

// Shutdown stops intake and drains: queued requests are still admitted,
// then the engine finishes (final metrics sweep) and the goroutine
// exits. Blocks until the drain completes or ctx expires. Safe to call
// more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.lifeMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.lifeMu.Unlock()
	select {
	case <-s.engineDone:
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown: %w", ctx.Err())
	}
	if s.tracing {
		// The engine has drained; wait for handler-side finalisation of
		// every traced request, then drain and flush the audit sink so
		// the JSONL file is complete (no truncated records).
		flushed := make(chan struct{})
		go func() {
			s.auditWG.Wait()
			close(flushed)
		}()
		select {
		case <-flushed:
		case <-ctx.Done():
			return fmt.Errorf("server: shutdown: audit flush: %w", ctx.Err())
		}
		if err := s.sink.Close(); err != nil {
			return fmt.Errorf("server: shutdown: %w", err)
		}
	}
	return nil
}

// Result returns the engine's final simulation result. Only available
// after Shutdown has drained.
func (s *Server) Result() (*sim.Result, error) {
	select {
	case <-s.engineDone:
		return s.result, s.resultErr
	default:
		return nil, fmt.Errorf("server: still serving (Result is available after Shutdown)")
	}
}

// runBatch admits a batch of queued requests in arrival order, on the
// engine goroutine. Engine errors are recorded on the reservation
// (StatusError) rather than crashing the daemon — they indicate bugs,
// and the obs counters make them visible.
func (s *Server) runBatch(batch []*pending) {
	s.gQueue.Set(float64(len(s.queue)))
	s.ctrBatches.Inc()
	if s.tracing {
		now := s.now()
		for _, q := range batch {
			q.rec.End(q.qwSpan, now)
			q.bwSpan = q.rec.Begin(PhaseBatchWait, now)
		}
	}
	for _, p := range batch {
		s.admitOne(p)
	}
}

// admitOne is one request's turn on the engine goroutine.
func (s *Server) admitOne(p *pending) {
	defer close(p.done)
	eng := s.eng

	if s.tracing {
		now := s.now()
		p.rec.End(p.bwSpan, now)
		p.eaSpan = p.rec.Begin(PhaseEngineAdmit, now)
		// Deferred so every settle path (horizon, expired, error,
		// decision) gets the same finalisation; defers run LIFO, so this
		// completes the trace before close(p.done) releases the handler.
		defer s.finishEngineTrace(p, s.probe.read(), p.rec.SinceNs(now))
	}

	// Resolve the arrival slot: the clock's current slot, or — in
	// arrival-driven (max speed) mode — the client's declared slot,
	// which ratchets the clock forward. The engine requires arrivals to
	// be non-decreasing, so a stale declared slot clamps up to the
	// engine's current slot rather than erroring.
	arrival := s.clock.now(s.now())
	if !s.clock.realtime() && p.arrival != nil {
		arrival = *p.arrival
	}
	if cur := eng.CurrentSlot(); arrival < cur {
		arrival = cur
	}
	s.clock.observe(arrival)

	start := arrival
	if p.start != nil && *p.start > arrival {
		start = *p.start
	}
	// The window saturates at the horizon: a duration or end slot past
	// it ends at its last slot, and start + dur − 1 is never formed where
	// it could overflow.
	end := s.horizon - 1
	switch {
	case p.end != nil:
		end = min(*p.end, end)
	case start < s.horizon && p.dur-1 < end-start:
		end = start + p.dur - 1
	}

	p.resv.ArrivalSlot, p.resv.StartSlot, p.resv.EndSlot = arrival, start, end

	switch {
	case arrival >= s.horizon || start >= s.horizon:
		s.finishRejected(p, ReasonHorizonExhausted)
		return
	case end < start:
		// The declared deadline passed before the request reached the
		// engine: the whole active window is in the past.
		s.ctrExpired.Inc()
		s.finishRejected(p, ReasonExpired)
		return
	}

	d, err := eng.Admit(workload.Request{
		ID:          int(p.id),
		Src:         p.src,
		Dst:         p.dst,
		ArrivalSlot: arrival,
		StartSlot:   start,
		EndSlot:     end,
		RateMbps:    p.rate,
		Valuation:   p.val,
	})
	if err != nil {
		p.resv.Status = StatusError
		p.resv.Reason = err.Error()
		s.store(p)
		return
	}
	if s.tracing {
		rec := sim.DecisionRecord(p.request(), d, eng.Total())
		p.decision = &rec
	}
	s.statTotal.Add(1)
	if d.Accepted {
		p.resv.Status = StatusAccepted
		p.resv.Price = d.Price
		p.resv.TotalHops = d.Plan.TotalHops()
		s.statAccepted.Add(1)
		s.addRevenue(d.Price)
	} else {
		p.resv.Status = StatusRejected
		p.resv.Reason = d.Reason
		s.statRejected.Add(1)
	}
	s.store(p)
}

// finishRejected settles a serving-layer rejection (never shown to the
// engine).
func (s *Server) finishRejected(p *pending, reason string) {
	p.resv.Status = StatusRejected
	p.resv.Reason = reason
	s.statTotal.Add(1)
	s.statRejected.Add(1)
	s.store(p)
}

// store publishes the settled reservation, records admit latency and
// feeds the SLO classes.
func (s *Server) store(p *pending) {
	lat := s.now().Sub(p.enqueued).Seconds()
	s.histAdmit.Observe(lat)
	s.sloLatency.ObserveLatency(lat)
	// Availability counts engine errors as bad; a rejection is the
	// mechanism working, not an outage. Shed requests are observed at
	// the refusal site (they never reach store).
	s.sloAvail.Observe(p.resv.Status != StatusError)
	s.resvMu.Lock()
	s.resvs[p.id] = p.resv
	s.resvMu.Unlock()
}

// finishEngineTrace closes the engine.admit span, attributes the
// admission's counter deltas, and settles who emits the audit record:
// normally the handler (after it writes the response), or the engine
// itself when the handler's client abandoned the wait.
func (s *Server) finishEngineTrace(p *pending, before probeSample, admitStartNs int64) {
	now := s.now()
	p.rec.End(p.eaSpan, now)
	d := s.probe.read().sub(before)
	p.stats = d
	// The search timers include the pricing callbacks they invoke;
	// report disjoint sub-phases by subtracting (Add clamps at 0).
	p.rec.Add(PhaseEngineSearch, admitStartNs, d[probeSearchNs]-d[probePricingNs])
	p.rec.Add(PhaseEnginePricing, admitStartNs, d[probePricingNs])
	p.rec.Add(PhaseEngineCommit, admitStartNs, d[probeCommitNs])
	if !p.emitState.CompareAndSwap(emitWaiting, emitDecided) {
		// The handler marked the request abandoned: no respond phase
		// will happen, emit here.
		s.emitDecided(p, now)
	}
}

// request is the booking as the engine sees it, with the window as far
// as the engine goroutine resolved it (zero before that).
func (p *pending) request() workload.Request {
	return workload.Request{
		ID:          int(p.id),
		Src:         p.src,
		Dst:         p.dst,
		ArrivalSlot: p.resv.ArrivalSlot,
		StartSlot:   p.resv.StartSlot,
		EndSlot:     p.resv.EndSlot,
		RateMbps:    p.rate,
		Valuation:   p.val,
	}
}

// auditRecord is p's line of the audit log: the engine's decision record
// — or, for a booking settled without one, the same constructor's record
// of the request with its reason and no seq — plus the serving fields
// common to every outcome.
func (s *Server) auditRecord(p *pending, outcome string, now time.Time) *trace.Record {
	rec := p.decision
	if rec == nil {
		r := sim.DecisionRecord(p.request(), router.Decision{Reason: p.resv.Reason}, 0)
		rec = &r
	}
	rec.ClientID = p.clientID
	rec.TSUnixNs = p.rec.Epoch().UnixNano()
	rec.Outcome = outcome
	rec.TotalNs = p.rec.SinceNs(now)
	return rec
}

// emitDecided builds and emits the audit record for a settled request
// and returns the trace recorder to the pool. Called exactly once per
// traced decided request — by the handler after responding, or by
// finishEngineTrace when the handler abandoned.
func (s *Server) emitDecided(p *pending, now time.Time) {
	defer s.auditWG.Done()
	rec := s.auditRecord(p, p.resv.Status, now)
	rec.Searches = p.stats[probeSearches]
	rec.PrunedLabels = p.stats[probePruned]
	rec.HeapPops = p.stats[probeHeapPops]
	rec.DeficitWalks = p.stats[probeWalks]
	// Tail sampling: anything that went wrong (or slow) always carries
	// its full phase timeline; otherwise head sampling decides.
	rec.Sampled = p.headSampled || p.resv.Status != StatusAccepted || s.policy.Slow(rec.TotalNs)
	if rec.Sampled {
		rec.Phases = p.rec.CopySpans()
	}
	s.tracePool.Put(p.rec)
	p.rec = nil
	s.sink.emit(rec)
}

// emitRefused audits a request the serving layer refused before it
// reached the queue (shed or draining). Refusals are always sampled.
func (s *Server) emitRefused(p *pending, outcome string) {
	now := s.now()
	p.rec.End(p.qwSpan, now)
	rec := s.auditRecord(p, outcome, now)
	rec.Sampled = true
	rec.Phases = p.rec.CopySpans()
	s.tracePool.Put(p.rec)
	p.rec = nil
	s.sink.emit(rec)
}

// reservation returns a copy of the reservation, if known.
func (s *Server) reservation(id int64) (Reservation, bool) {
	s.resvMu.RLock()
	defer s.resvMu.RUnlock()
	r, ok := s.resvs[id]
	return r, ok
}

// TraceStats is the audit-pipeline section of /v1/stats (present only
// when tracing is enabled).
type TraceStats struct {
	Records int64 `json:"records"`
	Sampled int64 `json:"sampled"`
	Dropped int64 `json:"dropped"`
}

// Stats is the live service snapshot behind GET /v1/stats.
type Stats struct {
	Algorithm      string            `json:"algorithm"`
	Version        string            `json:"version"`
	UptimeSeconds  float64           `json:"uptime_seconds"`
	Slot           int               `json:"slot"`
	Horizon        int               `json:"horizon"`
	ClockRate      float64           `json:"clock_rate"`
	QueueDepth     int               `json:"queue_depth"`
	QueueHighWater int64             `json:"queue_high_water"`
	QueueCapacity  int               `json:"queue_capacity"`
	BatchSize      int               `json:"batch_size"`
	Total          int64             `json:"requests_total"`
	Accepted       int64             `json:"requests_accepted"`
	Rejected       int64             `json:"requests_rejected"`
	Shed           int64             `json:"requests_shed"`
	Revenue        float64           `json:"revenue"`
	Draining       bool              `json:"draining"`
	SLO            []obs.SLOSnapshot `json:"slo"`
	Trace          *TraceStats       `json:"trace,omitempty"`
}

// SLOSnapshots returns the current state of every SLO class, for
// /v1/stats and the run report.
func (s *Server) SLOSnapshots() []obs.SLOSnapshot {
	return []obs.SLOSnapshot{s.sloLatency.Snapshot(), s.sloAvail.Snapshot()}
}

// StatsSnapshot assembles the live counters.
func (s *Server) StatsSnapshot() Stats {
	s.lifeMu.RLock()
	draining := s.draining
	s.lifeMu.RUnlock()
	st := Stats{
		Algorithm:      s.Algorithm(),
		Version:        buildinfo.Read().Version,
		UptimeSeconds:  s.now().Sub(s.started).Seconds(),
		Slot:           s.Slot(),
		Horizon:        s.horizon,
		ClockRate:      s.cfg.ClockRate,
		QueueDepth:     len(s.queue),
		QueueHighWater: s.statQueueHW.Load(),
		QueueCapacity:  s.cfg.QueueDepth,
		BatchSize:      s.cfg.BatchSize,
		Total:          s.statTotal.Load(),
		Accepted:       s.statAccepted.Load(),
		Rejected:       s.statRejected.Load(),
		Shed:           s.statShed.Load(),
		Revenue:        s.revenue(),
		Draining:       draining,
		SLO:            s.SLOSnapshots(),
	}
	if s.tracing {
		st.Trace = &TraceStats{
			Records: s.sink.ctrRecords.Value(),
			Sampled: s.sink.ctrSampled.Value(),
			Dropped: s.sink.ctrDropped.Value(),
		}
	}
	return st
}

// addRevenue accumulates an accepted booking's price into the stats
// mirror. Only the engine goroutine writes it, in engine order, so the
// float sum is bit-identical to the engine's own Revenue accumulator.
func (s *Server) addRevenue(price float64) {
	s.statRevenue.Store(math.Float64bits(s.revenue() + price))
}

func (s *Server) revenue() float64 { return math.Float64frombits(s.statRevenue.Load()) }
