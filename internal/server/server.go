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
//	HTTP handlers ──► wait for the turn ──► admit on the handler ──► respond
//	   (many)         (FIFO; QueueDepth       (one turn holder:      + audit
//	                   waiting = shed          the engine's single
//	                   "overloaded")           writer)
//
// Each booking is admitted on its own handler while it holds the turn, a
// one-slot channel: blocked senders on a Go channel are served in the
// order they blocked, so bookings are admitted one at a time in arrival
// order, preserving the paper's sequential online model and the engine's
// one-writer-at-a-time contract. The engine is the same code path sim.Run
// uses, so a served request stream (clock at max speed) is bit-identical
// to a batch simulation of the same stream.
package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
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

// Reservation statuses. A reservation exists once it has settled into
// exactly one of the first three.
const (
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
	// compresses an hour into a minute). 0 means as fast as possible:
	// the clock follows request arrival slots, the benchmarking and
	// replay mode. New rejects any other rate whose slot period is not a
	// time.Duration of at least 1ns: a negative, NaN or infinite rate,
	// or one so small that the period overflows.
	ClockRate float64
	// QueueDepth bounds the bookings waiting for the engine's turn; one
	// more sheds with StatusOverloaded instead of waiting. Default 256.
	QueueDepth int
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

// pending is one booking on its way through handleBook: the normalised
// request plus its settled reservation and tracing state.
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

	parsed time.Time
	resv   Reservation

	// Tracing state (zero-valued when tracing is disabled): the
	// handler's entry time and the phase boundaries in nanoseconds since
	// it — parsing ends at parsedNs, the wait for the turn (or the
	// refusal) at turnNs, the admission at admittedNs — plus the
	// admission's probe delta.
	clientID    string
	epoch       time.Time
	parsedNs    int64
	turnNs      int64
	admittedNs  int64
	headSampled bool
	stats       probeSample
	// decision is the engine's decision record (sim.DecisionRecord, with
	// its seq); nil until the engine decides, and for every booking it
	// never sees.
	decision *trace.Record
}

// Server is the long-running booking service.
type Server struct {
	cfg Config
	// eng is touched only by the holder of turn, the one-slot channel a
	// handler sends to before admitting and receives from after. Blocked
	// senders are served first come, first served, so bookings reach the
	// engine in the order they started waiting.
	eng     *sim.Engine
	turn    chan struct{}
	clock   *slotClock
	horizon int
	now     func() time.Time
	started time.Time

	// lifeMu guards draining against inflight.Add: handlers register
	// holding it shared, Shutdown sets draining exclusively, so no handler
	// joins inflight once Shutdown waits on it. inflight counts the
	// handlers past that check; each writes its response and, when
	// tracing, its one audit record before leaving it.
	lifeMu   sync.RWMutex
	draining bool
	inflight sync.WaitGroup
	// waiting counts the bookings waiting for the turn; a booking that
	// would make it exceed QueueDepth is shed.
	waiting atomic.Int64

	finishOnce sync.Once
	finished   chan struct{}
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
	// ctrBatches (server.batches) counts turns, one booking each. It
	// survives only because benchmark/run.go divides by it for its
	// server.batch_size_mean row, which therefore reads exactly 1;
	// ROADMAP item 21 drops both.
	ctrBatches *obs.Counter
	histAdmit  *obs.Histogram

	// SLO classes (always maintained; gauges are nil-safe).
	sloLatency *obs.SLOClass
	sloAvail   *obs.SLOClass

	// Tracing (all nil/zero when cfg.Trace is disabled).
	tracing bool
	policy  obs.SamplePolicy
	sink    *auditSink
	probe   engineProbe

	// Stats mirrors, so /v1/stats never touches engine internals and
	// reads the same with or without an obs registry. The turn holder
	// maintains the first four, wait the last two.
	statTotal    atomic.Int64
	statAccepted atomic.Int64
	statRejected atomic.Int64
	statRevenue  atomic.Uint64 // math.Float64bits
	statQueueHW  atomic.Int64
	statShed     atomic.Int64
}

// New builds the engine and the slot clock. The server is accepting
// bookings when New returns.
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
	if r := cfg.ClockRate; r != 0 {
		if period := float64(time.Second) / r; !(period >= 1 && period < math.MaxInt64) {
			return nil, fmt.Errorf("server: clock rate %g must be 0 (arrival-driven) or give a slot period of at least 1ns", r)
		}
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
		turn:       make(chan struct{}, 1),
		clock:      newSlotClock(cfg.ClockRate, cfg.Now()),
		horizon:    cfg.Provider.Horizon(),
		now:        cfg.Now,
		started:    cfg.Now(),
		finished:   make(chan struct{}),
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
		s.policy = obs.SamplePolicy{
			Rate:   cfg.Trace.SampleRate,
			SlowNs: cfg.SLO.LatencyObjective.Nanoseconds(),
		}
		s.sink = sink
		s.probe = newEngineProbe(reg)
		eng.EnableTraceDetail()
	}
	return s, nil
}

// Algorithm returns the engine's algorithm display name.
func (s *Server) Algorithm() string { return s.eng.Algorithm() }

// Horizon returns the number of slots served.
func (s *Server) Horizon() int { return s.horizon }

// Slot returns the current slot of the service clock.
func (s *Server) Slot() int { return s.clock.now(s.now()) }

// enter registers a booking's handler with the drain, or reports false
// once Shutdown has begun.
func (s *Server) enter() bool {
	s.lifeMu.RLock()
	defer s.lifeMu.RUnlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// wait counts one more booking waiting for the turn, or sheds it —
// counted, and against availability, never blocking — when QueueDepth
// are already waiting.
func (s *Server) wait() bool {
	var depth int64
	for {
		n := s.waiting.Load()
		if n >= int64(s.cfg.QueueDepth) {
			s.ctrShed.Inc()
			s.statShed.Add(1)
			s.sloAvail.Observe(false)
			return false
		}
		if s.waiting.CompareAndSwap(n, n+1) {
			depth = n + 1
			break
		}
	}
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
	return true
}

// admit waits for the turn, admits p and hands the turn on. The caller
// must have counted p in with wait.
func (s *Server) admit(p *pending) {
	s.turn <- struct{}{}
	s.gQueue.Set(float64(s.waiting.Add(-1)))
	s.ctrBatches.Inc()
	s.admitOne(p)
	<-s.turn
}

// Shutdown stops intake and drains: every booking already past intake is
// still admitted and answered, then the engine finishes (final metrics
// sweep) inside the turn and the audit log is flushed. Blocks until the
// drain completes or ctx expires. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.lifeMu.Lock()
	s.draining = true
	s.lifeMu.Unlock()
	// The waiter outlives a ctx that expires first, until the last
	// handler leaves.
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.finishOnce.Do(func() {
			s.turn <- struct{}{}
			s.result, s.resultErr = s.eng.Finish()
			close(s.finished)
			<-s.turn
		})
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown: %w", ctx.Err())
	}
	if s.tracing {
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
	case <-s.finished:
		return s.result, s.resultErr
	default:
		return nil, fmt.Errorf("server: still serving (Result is available after Shutdown)")
	}
}

// admitOne is one request's turn on the engine. Engine errors are
// recorded on the reservation (StatusError) rather than crashing the
// daemon — they indicate bugs, and the obs counters make them visible.
func (s *Server) admitOne(p *pending) {
	eng := s.eng

	if s.tracing {
		p.turnNs = p.since(s.now())
		// Deferred so every settle path (horizon, expired, error,
		// decision) gets the same finalisation.
		defer s.finishEngineTrace(p, s.probe.read())
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
	lat := s.now().Sub(p.parsed).Seconds()
	s.histAdmit.Observe(lat)
	s.sloLatency.ObserveLatency(lat)
	// Availability counts engine errors as bad; a rejection is the
	// mechanism working, not an outage. Shed requests are observed by
	// wait (they never reach store).
	s.sloAvail.Observe(p.resv.Status != StatusError)
	s.resvMu.Lock()
	s.resvs[p.id] = p.resv
	s.resvMu.Unlock()
}

// finishEngineTrace ends the engine.admit phase and keeps the
// admission's counter deltas, read while the turn is still held.
func (s *Server) finishEngineTrace(p *pending, before probeSample) {
	p.admittedNs = p.since(s.now())
	p.stats = s.probe.read().sub(before)
}

// since is now in nanoseconds since p's epoch, clamped at 0 (fake test
// clocks may not advance).
func (p *pending) since(now time.Time) int64 {
	return max(0, now.Sub(p.epoch).Nanoseconds())
}

// waitPhases is the start of a sampled record's timeline: parsing, then
// the wait for the turn up to turnNs. room sizes the slice for the phases
// that follow.
func (p *pending) waitPhases(room int) []obs.TraceSpan {
	return append(make([]obs.TraceSpan, 0, 2+room),
		obs.TraceSpan{Name: PhaseIngressParse, EndNs: p.parsedNs},
		obs.TraceSpan{Name: PhaseQueueWait, StartNs: p.parsedNs, EndNs: p.turnNs})
}

// subPhase is an engine.* sub-phase: an admission-time counter delta laid
// from the start of engine.admit, clamped at 0.
func subPhase(name string, startNs, durNs int64) obs.TraceSpan {
	return obs.TraceSpan{Name: name, StartNs: startNs, EndNs: startNs + max(0, durNs)}
}

// request is the booking as the engine sees it, with the window as far
// as admitOne resolved it (zero before that).
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
	rec.TSUnixNs = p.epoch.UnixNano()
	rec.Outcome = outcome
	rec.TotalNs = p.since(now)
	return rec
}

// emitDecided builds and emits the audit record for a settled request
// whose response was written from respondStart to now. The handler that
// decided the request calls it once, after responding.
func (s *Server) emitDecided(p *pending, respondStart, now time.Time) {
	rec := s.auditRecord(p, p.resv.Status, now)
	rec.Searches = p.stats[probeSearches]
	rec.PrunedLabels = p.stats[probePruned]
	rec.HeapPops = p.stats[probeHeapPops]
	rec.DeficitWalks = p.stats[probeWalks]
	// Tail sampling: anything that went wrong (or slow) always carries
	// its full phase timeline; otherwise head sampling decides.
	rec.Sampled = p.headSampled || p.resv.Status != StatusAccepted || s.policy.Slow(rec.TotalNs)
	if rec.Sampled {
		// The search timers include the pricing callbacks they invoke;
		// the sub-phases are disjoint by subtracting.
		d := p.stats
		rec.Phases = append(p.waitPhases(5),
			obs.TraceSpan{Name: PhaseEngineAdmit, StartNs: p.turnNs, EndNs: p.admittedNs},
			subPhase(PhaseEngineSearch, p.turnNs, d[probeSearchNs]-d[probePricingNs]),
			subPhase(PhaseEnginePricing, p.turnNs, d[probePricingNs]),
			subPhase(PhaseEngineCommit, p.turnNs, d[probeCommitNs]),
			obs.TraceSpan{Name: PhaseRespond, StartNs: p.since(respondStart), EndNs: rec.TotalNs})
	}
	s.sink.emit(rec)
}

// refuse answers a booking the serving layer turned away before it
// waited for the turn (shed or draining) with the bare status. A traced
// refusal is audited, always sampled.
func (s *Server) refuse(w http.ResponseWriter, p *pending, code int, status string) {
	if s.tracing {
		now := s.now()
		p.turnNs = p.since(now)
		rec := s.auditRecord(p, status, now)
		rec.Sampled = true
		rec.Phases = p.waitPhases(0)
		s.sink.emit(rec)
	}
	writeJSON(w, code, BookResponse{Status: status})
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
		QueueDepth:     int(s.waiting.Load()),
		QueueHighWater: s.statQueueHW.Load(),
		QueueCapacity:  s.cfg.QueueDepth,
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
// mirror. Only the turn holder writes it, in engine order, so the
// float sum is bit-identical to the engine's own Revenue accumulator.
func (s *Server) addRevenue(price float64) {
	s.statRevenue.Store(math.Float64bits(s.revenue() + price))
}

func (s *Server) revenue() float64 { return math.Float64frombits(s.statRevenue.Load()) }
