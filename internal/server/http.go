package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"spacebooking/internal/obs"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// EndpointRef is the wire form of a request endpoint.
type EndpointRef struct {
	// Kind is "ground" (tiling-site index) or "space" (EO-fleet index).
	Kind  string `json:"kind"`
	Index int    `json:"index"`
}

// String renders the compact "kind/index" form used in reservations.
func (e EndpointRef) String() string { return fmt.Sprintf("%s/%d", e.Kind, e.Index) }

// endpoint resolves the reference against the provider's index spaces.
func (s *Server) endpoint(e EndpointRef) (topology.Endpoint, error) {
	var kind topology.EndpointKind
	var limit int
	switch e.Kind {
	case "ground":
		kind, limit = topology.EndpointGround, s.cfg.Provider.NumSites()
	case "space":
		kind, limit = topology.EndpointSpace, s.cfg.Provider.NumEO()
	default:
		return topology.Endpoint{}, fmt.Errorf("unknown endpoint kind %q (want ground or space)", e.Kind)
	}
	if e.Index < 0 || e.Index >= limit {
		return topology.Endpoint{}, fmt.Errorf("%s index %d outside [0,%d)", e.Kind, e.Index, limit)
	}
	return topology.Endpoint{Kind: kind, Index: e.Index}, nil
}

// BookRequest is the body of POST /v1/book. DurationSlots sizes the
// active window from the arrival slot; the three explicit slot fields
// override it for replay against an arrival-driven (max speed) clock.
type BookRequest struct {
	Src           EndpointRef `json:"src"`
	Dst           EndpointRef `json:"dst"`
	RateMbps      float64     `json:"rate_mbps"`
	DurationSlots int         `json:"duration_slots,omitempty"`
	// Valuation defaults to the server's configured workload valuation
	// when zero.
	Valuation float64 `json:"valuation,omitempty"`
	// ArrivalSlot/StartSlot/EndSlot pin the window explicitly (replay
	// mode). Nil fields derive from the slot clock at admission time.
	ArrivalSlot *int `json:"arrival_slot,omitempty"`
	StartSlot   *int `json:"start_slot,omitempty"`
	EndSlot     *int `json:"end_slot,omitempty"`
	// RequestID is an optional client-assigned id echoed on the
	// reservation and audit record, joining server-side traces to
	// client-side logs (GET /v1/requests/{id}/trace accepts it too).
	RequestID string `json:"request_id,omitempty"`
}

// BookResponse is the body of POST /v1/book: the settled reservation,
// or the shed/draining status with no reservation attached.
type BookResponse struct {
	Status      string       `json:"status"`
	Reservation *Reservation `json:"reservation,omitempty"`
}

// ConfigResponse is the body of GET /v1/config: what a load generator
// needs to synthesise a valid workload against this server.
type ConfigResponse struct {
	Algorithm string          `json:"algorithm"`
	Horizon   int             `json:"horizon"`
	ClockRate float64         `json:"clock_rate"`
	Pairs     []PairRef       `json:"pairs"`
	Workload  workload.Config `json:"workload"`
}

// PairRef is one bookable source–destination pair in wire form.
type PairRef struct {
	Src EndpointRef `json:"src"`
	Dst EndpointRef `json:"dst"`
}

// refOf converts a topology endpoint back to wire form.
func refOf(e topology.Endpoint) EndpointRef {
	kind := "ground"
	if e.Kind == topology.EndpointSpace {
		kind = "space"
	}
	return EndpointRef{Kind: kind, Index: e.Index}
}

// jsonEncoder starts a JSON response and returns the encoder for its body.
func jsonEncoder(w http.ResponseWriter, code int) *json.Encoder {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	return json.NewEncoder(w)
}

// writeJSON writes one compact JSON response — what POST /v1/book answers
// with, a program on the other end. Encode errors past the header are
// logged into the void (the client is gone).
func writeJSON(w http.ResponseWriter, code int, v any) {
	_ = jsonEncoder(w, code).Encode(v)
}

// writeIndentedJSON is writeJSON for the endpoints people read with curl.
func writeIndentedJSON(w http.ResponseWriter, code int, v any) {
	enc := jsonEncoder(w, code)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorJSON writes the uniform error envelope.
func errorJSON(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// maxBookBodyBytes bounds what POST /v1/book reads: more than a hundred
// times the largest valid booking, so only a hostile or broken client
// meets it.
const maxBookBodyBytes = 64 << 10

// Register mounts the booking API on mux. The caller typically passes
// obs.NewDebugMux's mux so /v1/* rides alongside /debug/pprof/,
// /metrics and /metrics.json on one listener.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/book", s.handleBook)
	mux.HandleFunc("GET /v1/reservations/{id}", s.handleReservation)
	mux.HandleFunc("GET /v1/requests/{id}/trace", s.handleRequestTrace)
	mux.HandleFunc("GET /debug/traces.json", s.handleRecentTraces)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/config", s.handleConfig)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// handleBook admits one booking synchronously: enqueue, wait for the
// engine's decision, respond. A full queue responds immediately with
// StatusOverloaded (HTTP 429) — explicit load shedding, never blocking.
func (s *Server) handleBook(w http.ResponseWriter, r *http.Request) {
	var rec *obs.TraceRec
	var parseSpan int
	if s.tracing {
		rec = s.tracePool.Get(s.now())
		parseSpan = rec.Begin(PhaseIngressParse, s.now())
	}
	var br BookRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBookBodyBytes)).Decode(&br); err != nil {
		s.tracePool.Put(rec)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			errorJSON(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		errorJSON(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	p, err := s.newPending(br)
	if err != nil {
		s.tracePool.Put(rec)
		errorJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	if rec != nil {
		now := s.now()
		rec.End(parseSpan, now)
		p.rec = rec
		p.headSampled = s.policy.SampleHead(uint64(p.id))
		// The queue.wait span must open — and the audit debt register —
		// before enqueue: the engine may touch p the instant the send
		// lands.
		p.qwSpan = rec.Begin(PhaseQueueWait, now)
		s.auditWG.Add(1)
	}
	switch err := s.enqueue(p); err {
	case nil:
	case errShed:
		s.sloAvail.Observe(false)
		if s.tracing {
			s.emitRefused(p, StatusOverloaded)
			s.auditWG.Done()
		}
		writeJSON(w, http.StatusTooManyRequests, BookResponse{Status: StatusOverloaded})
		return
	case errDraining:
		if s.tracing {
			s.emitRefused(p, StatusDraining)
			s.auditWG.Done()
		}
		writeJSON(w, http.StatusServiceUnavailable, BookResponse{Status: StatusDraining})
		return
	default:
		if s.tracing {
			s.emitRefused(p, StatusError)
			s.auditWG.Done()
		}
		errorJSON(w, http.StatusInternalServerError, err.Error())
		return
	}
	select {
	case <-p.done:
	case <-r.Context().Done():
		// The client gave up; the decision is still made (admission is
		// irrevocable) and stays queryable at /v1/reservations/{id}.
		// For traced requests, hand audit emission to the engine — or,
		// if it already decided, fall through to the normal path.
		if !s.tracing || p.emitState.CompareAndSwap(emitWaiting, emitAbandoned) {
			writeJSON(w, http.StatusAccepted, BookResponse{
				Status:      StatusQueued,
				Reservation: &Reservation{ID: p.id, Status: StatusQueued},
			})
			return
		}
		<-p.done
	}
	resv := p.resv
	code := http.StatusOK
	if resv.Status == StatusError {
		code = http.StatusInternalServerError
	}
	if s.tracing {
		respondSpan := p.rec.Begin(PhaseRespond, s.now())
		writeJSON(w, code, BookResponse{Status: resv.Status, Reservation: &resv})
		p.rec.End(respondSpan, s.now())
		s.emitDecided(p, s.now())
		return
	}
	writeJSON(w, code, BookResponse{Status: resv.Status, Reservation: &resv})
}

// newPending validates and normalises one booking into a queue entry.
func (s *Server) newPending(br BookRequest) (*pending, error) {
	src, err := s.endpoint(br.Src)
	if err != nil {
		return nil, fmt.Errorf("src: %w", err)
	}
	dst, err := s.endpoint(br.Dst)
	if err != nil {
		return nil, fmt.Errorf("dst: %w", err)
	}
	if src == dst {
		return nil, fmt.Errorf("src and dst are the same endpoint")
	}
	if br.RateMbps <= 0 {
		return nil, fmt.Errorf("rate_mbps must be positive, got %v", br.RateMbps)
	}
	val := br.Valuation
	if val == 0 {
		val = s.cfg.Run.Workload.Valuation
	}
	if val <= 0 {
		return nil, fmt.Errorf("valuation must be positive, got %v", val)
	}
	dur := br.DurationSlots
	if dur < 0 {
		return nil, fmt.Errorf("duration_slots must be positive, got %d", br.DurationSlots)
	}
	if dur == 0 && br.EndSlot == nil {
		dur = 1 // default: a single-slot booking starting now
	}
	// Checked in this order, so a booking with several negative slots is
	// always told about the same one.
	for _, f := range [...]struct {
		name string
		v    *int
	}{{"arrival_slot", br.ArrivalSlot}, {"start_slot", br.StartSlot}, {"end_slot", br.EndSlot}} {
		if f.v != nil && *f.v < 0 {
			return nil, fmt.Errorf("%s must be non-negative, got %d", f.name, *f.v)
		}
	}
	p := &pending{
		id:       s.nextID.Add(1),
		src:      src,
		dst:      dst,
		arrival:  br.ArrivalSlot,
		start:    br.StartSlot,
		end:      br.EndSlot,
		dur:      dur,
		rate:     br.RateMbps,
		val:      val,
		enqueued: s.now(),
		done:     make(chan struct{}),
		clientID: br.RequestID,
	}
	p.resv = Reservation{
		ID:              p.id,
		Status:          StatusQueued,
		Src:             br.Src.String(),
		Dst:             br.Dst.String(),
		RateMbps:        br.RateMbps,
		Valuation:       val,
		ClientRequestID: br.RequestID,
	}
	return p, nil
}

// handleReservation serves GET /v1/reservations/{id}.
func (s *Server) handleReservation(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "invalid reservation id")
		return
	}
	resv, ok := s.reservation(id)
	if !ok {
		errorJSON(w, http.StatusNotFound, fmt.Sprintf("no reservation %d", id))
		return
	}
	writeIndentedJSON(w, http.StatusOK, resv)
}

// handleRequestTrace serves GET /v1/requests/{id}/trace: the audit
// record for one request, addressed by server id (numeric) or by the
// client-assigned request_id. Only records still in the recent buffer
// resolve; this is a debugging window, not a durable store (the JSONL
// audit log is the durable stream).
func (s *Server) handleRequestTrace(w http.ResponseWriter, r *http.Request) {
	if !s.tracing {
		errorJSON(w, http.StatusNotFound, "tracing disabled (start spaced with -trace-sample, -audit-log or -trace)")
		return
	}
	idStr := r.PathValue("id")
	var rec *AuditRecord
	if id, err := strconv.ParseInt(idStr, 10, 64); err == nil {
		rec = s.sink.find(func(a *AuditRecord) bool { return a.ID == id })
	} else {
		rec = s.sink.find(func(a *AuditRecord) bool { return a.ClientID == idStr })
	}
	if rec == nil {
		errorJSON(w, http.StatusNotFound,
			fmt.Sprintf("no audit record for request %q (still in flight, or evicted from the recent buffer)", idStr))
		return
	}
	writeIndentedJSON(w, http.StatusOK, rec)
}

// handleRecentTraces serves GET /debug/traces.json: the most recent
// audit records, newest first. ?n= bounds the count.
func (s *Server) handleRecentTraces(w http.ResponseWriter, r *http.Request) {
	if !s.tracing {
		errorJSON(w, http.StatusNotFound, "tracing disabled (start spaced with -trace-sample, -audit-log or -trace)")
		return
	}
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			errorJSON(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		n = v
	}
	recs := s.sink.Recent(n)
	writeIndentedJSON(w, http.StatusOK, map[string]any{
		"count":   len(recs),
		"records": recs,
	})
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeIndentedJSON(w, http.StatusOK, s.StatsSnapshot())
}

// handleConfig serves GET /v1/config.
func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	pairs := make([]PairRef, 0, len(s.cfg.Run.Workload.Pairs))
	for _, p := range s.cfg.Run.Workload.Pairs {
		pairs = append(pairs, PairRef{Src: refOf(p.Src), Dst: refOf(p.Dst)})
	}
	writeIndentedJSON(w, http.StatusOK, ConfigResponse{
		Algorithm: s.Algorithm(),
		Horizon:   s.horizon,
		ClockRate: s.cfg.ClockRate,
		Pairs:     pairs,
		Workload:  s.cfg.Run.Workload,
	})
}

// handleHealthz serves GET /healthz: 200 while accepting, 503 once
// draining (so load balancers and smoke tests see the drain).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.lifeMu.RLock()
	draining := s.draining
	s.lifeMu.RUnlock()
	if draining {
		writeIndentedJSON(w, http.StatusServiceUnavailable, map[string]string{"status": StatusDraining})
		return
	}
	writeIndentedJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
