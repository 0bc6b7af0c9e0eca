package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"spacebooking/internal/topology"
	"spacebooking/internal/trace"
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
	kind, err := topology.ParseEndpointKind(e.Kind)
	if err != nil {
		return topology.Endpoint{}, err
	}
	limit := s.cfg.Provider.NumSites()
	if kind == topology.EndpointSpace {
		limit = s.cfg.Provider.NumEO()
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

// RefOf converts a topology endpoint to its wire form.
func RefOf(e topology.Endpoint) EndpointRef { return EndpointRef{Kind: e.Kind.Name(), Index: e.Index} }

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

// TracingDisabled is the 404 message of the two trace lookups when the
// server runs without tracing; it names the spaced flags that enable it.
const TracingDisabled = "tracing disabled (start spaced with -trace-sample or -audit-log)"

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

// handleBook admits one booking synchronously: wait for the turn, admit,
// respond, audit. With QueueDepth bookings already waiting it responds at
// once with StatusOverloaded (HTTP 429) — explicit load shedding, never
// blocking. A client that gives up while its booking waits leaves it
// waiting: the booking is still decided (admission is irrevocable) and
// stays queryable at /v1/reservations/{id}.
func (s *Server) handleBook(w http.ResponseWriter, r *http.Request) {
	var epoch time.Time
	if s.tracing {
		epoch = s.now()
	}
	var br BookRequest
	if err := decodeBook(http.MaxBytesReader(w, r.Body, maxBookBodyBytes), &br); err != nil {
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
		errorJSON(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.tracing {
		p.epoch = epoch
		p.parsedNs = p.since(p.parsed)
		p.headSampled = s.policy.SampleHead(uint64(p.id))
	}
	if !s.enter() {
		s.refuse(w, p, http.StatusServiceUnavailable, StatusDraining)
		return
	}
	defer s.inflight.Done()
	if !s.wait() {
		s.refuse(w, p, http.StatusTooManyRequests, StatusOverloaded)
		return
	}
	s.admit(p)
	resv := p.resv
	code := http.StatusOK
	if resv.Status == StatusError {
		code = http.StatusInternalServerError
	}
	if s.tracing {
		respondStart := s.now()
		writeJSON(w, code, BookResponse{Status: resv.Status, Reservation: &resv})
		s.emitDecided(p, respondStart, s.now())
		return
	}
	writeJSON(w, code, BookResponse{Status: resv.Status, Reservation: &resv})
}

// decodeBook reads one booking object from body. Anything but whitespace
// after it is refused rather than ignored: a second booking in the same
// body would otherwise go undecided without a word.
func decodeBook(body io.Reader, br *BookRequest) error {
	dec := json.NewDecoder(body)
	if err := dec.Decode(br); err != nil {
		return err
	}
	_, err := dec.Token()
	switch {
	case err == io.EOF:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return err
	}
	return errors.New("data after the booking object")
}

// newPending validates and normalises one booking.
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
		return nil, fmt.Errorf("duration_slots must be non-negative, got %d", br.DurationSlots)
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
	if br.StartSlot != nil && br.EndSlot != nil && *br.EndSlot < *br.StartSlot {
		return nil, fmt.Errorf("end_slot must not precede start_slot, got [%d, %d]", *br.StartSlot, *br.EndSlot)
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
		parsed:   s.now(),
		clientID: br.RequestID,
	}
	p.resv = Reservation{
		ID:              p.id,
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
// record for one request, addressed by the client-assigned request_id or,
// when no client used that id, by the numeric server id. Only records
// still in the recent buffer resolve; this is a debugging window, not a
// durable store (the audit log is the durable stream).
func (s *Server) handleRequestTrace(w http.ResponseWriter, r *http.Request) {
	if !s.tracing {
		errorJSON(w, http.StatusNotFound, TracingDisabled)
		return
	}
	idStr := r.PathValue("id")
	rec := s.sink.find(func(a *trace.Record) bool { return a.ClientID == idStr })
	if id, err := strconv.Atoi(idStr); rec == nil && err == nil {
		rec = s.sink.find(func(a *trace.Record) bool { return a.RequestID == id })
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
		errorJSON(w, http.StatusNotFound, TracingDisabled)
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
		pairs = append(pairs, PairRef{Src: RefOf(p.Src), Dst: RefOf(p.Dst)})
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
