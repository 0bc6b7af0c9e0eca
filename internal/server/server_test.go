package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"spacebooking/internal/grid"
	"spacebooking/internal/obs"
	"spacebooking/internal/sim"
	"spacebooking/internal/topology"
	"spacebooking/internal/trace"
	"spacebooking/internal/workload"
)

var testEpoch = time.Date(2026, time.July, 5, 0, 0, 0, 0, time.UTC)

// sharedProvider is built once: provider construction dominates test time.
var (
	provOnce   sync.Once
	sharedProv *topology.Provider
	provErr    error
)

func testProvider(t testing.TB) *topology.Provider {
	t.Helper()
	provOnce.Do(func() {
		cfg := topology.DefaultConfig(testEpoch)
		cfg.Walker.Planes = 8
		cfg.Walker.SatsPerPlane = 12
		cfg.Walker.PhasingF = 3
		cfg.Horizon = 48
		sharedProv, provErr = topology.NewProvider(cfg, testSites(), nil)
	})
	if provErr != nil {
		t.Fatal(provErr)
	}
	return sharedProv
}

func testSites() []grid.Site {
	return []grid.Site{
		{ID: 0, LatDeg: 40.7, LonDeg: -74.0},  // New York
		{ID: 1, LatDeg: 34.1, LonDeg: -118.2}, // Los Angeles
		{ID: 2, LatDeg: 51.5, LonDeg: -0.1},   // London
		{ID: 3, LatDeg: 35.7, LonDeg: 139.7},  // Tokyo
	}
}

func testPairs() []workload.Pair {
	ep := func(i int) topology.Endpoint {
		return topology.Endpoint{Kind: topology.EndpointGround, Index: i}
	}
	return []workload.Pair{
		{Src: ep(0), Dst: ep(1)},
		{Src: ep(2), Dst: ep(3)},
		{Src: ep(0), Dst: ep(3)},
	}
}

func testRunConfig(t testing.TB, rate float64, seed int64) sim.RunConfig {
	t.Helper()
	wl := workload.DefaultConfig(48, testPairs(), seed)
	wl.ArrivalRatePerSlot = rate
	wl.Valuation = 1e8
	rc, err := sim.DefaultRunConfig(sim.AlgCEAR, wl)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// newTestServer builds a server plus an httptest front end.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Provider == nil {
		cfg.Provider = testProvider(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mounted as spaced mounts it: the booking API on the obs debug mux.
	mux := obs.NewDebugMux(cfg.Run.Obs)
	s.Register(mux)
	hs := httptest.NewServer(mux)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, hs
}

// postBook sends one booking and decodes the response.
func postBook(t *testing.T, url string, br BookRequest) (int, BookResponse) {
	t.Helper()
	body, err := json.Marshal(br)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/book", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out BookResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding /v1/book response: %v", err)
	}
	return resp.StatusCode, out
}

// checkInvariants verifies the engine's ledgers once the server has
// drained (the engine is quiesced after Shutdown).
func checkInvariants(t *testing.T, srv *Server) {
	t.Helper()
	if err := srv.eng.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestServedStreamMatchesBatchRun is the acceptance gate of the serving
// layer: an httptest-hosted server (clock at max speed, batch size 1)
// admitting the workload stream of sim.Run must produce byte-identical
// accept/reject decisions, prices, and committed state — proving the
// batch and serving paths share one engine.
func TestServedStreamMatchesBatchRun(t *testing.T) {
	prov := testProvider(t)
	rc := testRunConfig(t, 3, 1234)

	// Batch path: sim.Run with a decision trace.
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	batchRC := rc
	batchRC.Trace = tw
	batchRes, err := sim.Run(prov, batchRC)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var batchDecisions []trace.Record
	for _, r := range records {
		if r.Kind == trace.KindDecision {
			batchDecisions = append(batchDecisions, r)
		}
	}
	if len(batchDecisions) == 0 {
		t.Fatal("batch run produced no decisions; raise the arrival rate")
	}

	// Serving path: same stream over HTTP, one request at a time.
	srv, hs := newTestServer(t, Config{Provider: prov, Run: rc, BatchSize: 1, QueueDepth: 4})
	reqs, err := workload.Generate(rc.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != len(batchDecisions) {
		t.Fatalf("workload has %d requests, batch trace %d decisions", len(reqs), len(batchDecisions))
	}
	for i, req := range reqs {
		arrival, start, end := req.ArrivalSlot, req.StartSlot, req.EndSlot
		code, out := postBook(t, hs.URL, BookRequest{
			Src:         refOf(req.Src),
			Dst:         refOf(req.Dst),
			RateMbps:    req.RateMbps,
			Valuation:   req.Valuation,
			ArrivalSlot: &arrival,
			StartSlot:   &start,
			EndSlot:     &end,
		})
		if code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d (%+v)", i, code, out)
		}
		want := batchDecisions[i]
		got := out.Reservation
		if got == nil {
			t.Fatalf("request %d: no reservation in response", i)
		}
		if accepted := got.Status == StatusAccepted; accepted != want.Accepted {
			t.Fatalf("request %d: served accepted=%v, batch accepted=%v", i, accepted, want.Accepted)
		}
		if got.Price != want.Price {
			t.Fatalf("request %d: served price %v, batch price %v", i, got.Price, want.Price)
		}
		if got.Status == StatusRejected && got.Reason != want.Reason {
			t.Fatalf("request %d: served reason %q, batch reason %q", i, got.Reason, want.Reason)
		}
		if got.TotalHops != want.TotalHops {
			t.Fatalf("request %d: served hops %d, batch hops %d", i, got.TotalHops, want.TotalHops)
		}
	}

	// Committed state: the drained server's final Result must equal the
	// batch Result exactly (same welfare, revenue, per-slot depletion
	// and congestion sweeps over the committed reservations).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	servedRes, err := srv.Result()
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, srv)
	if !reflect.DeepEqual(batchRes, servedRes) {
		t.Fatalf("served result diverges from batch result:\nbatch:  %+v\nserved: %+v", batchRes, servedRes)
	}
}

// TestNewRejectsMoreThanOneShard: Config.Shards is a benchmark-compat
// field, not a setting; anything but 0 or 1 must fail loudly.
func TestNewRejectsMoreThanOneShard(t *testing.T) {
	if _, err := New(Config{Provider: testProvider(t), Run: testRunConfig(t, 2, 1), Shards: 2}); err == nil {
		t.Fatal("New accepted Shards: 2")
	}
}

// TestOverloadSheds verifies explicit backpressure: with the engine
// stalled and the ingress queue full, further bookings get an immediate
// StatusOverloaded response (HTTP 429), the server.shed counter and
// /v1/stats' requests_shed match the client-observed sheds — the latter
// with or without an obs registry — and nothing blocks.
func TestOverloadSheds(t *testing.T) {
	t.Run("observed", func(t *testing.T) { testOverloadSheds(t, obs.New()) })
	t.Run("no_registry", func(t *testing.T) { testOverloadSheds(t, nil) })
}

func testOverloadSheds(t *testing.T, reg *obs.Registry) {
	rc := testRunConfig(t, 2, 7)
	rc.Obs = reg
	gate := make(chan struct{})
	s, hs := newTestServer(t, Config{
		Run: rc, BatchSize: 1, QueueDepth: 2, testGate: gate,
	})

	br := func() BookRequest {
		return BookRequest{
			Src:      EndpointRef{Kind: "ground", Index: 0},
			Dst:      EndpointRef{Kind: "ground", Index: 1},
			RateMbps: 600,
		}
	}

	// First booking: consumed by the engine goroutine, which stalls on
	// the gate mid-batch. Its response arrives later, so post it from a
	// goroutine.
	firstDone := make(chan BookResponse, 1)
	go func() {
		_, out := postBook(t, hs.URL, br())
		firstDone <- out
	}()
	// The engine parks on the gate having popped the first booking;
	// wait until the queue is observably drained of it.
	waitFor(t, func() bool { return len(s.queue) == 0 && s.ctrBatches.Value() == 0 })

	// Fill the queue to capacity; these must enqueue without shedding.
	resps := make([]chan BookResponse, 2)
	for i := range resps {
		resps[i] = make(chan BookResponse, 1)
		ch := resps[i]
		go func() {
			_, out := postBook(t, hs.URL, br())
			ch <- out
		}()
	}
	waitFor(t, func() bool { return len(s.queue) == 2 })

	// Queue full: the next bookings shed immediately.
	const sheds = 3
	for i := 0; i < sheds; i++ {
		code, out := postBook(t, hs.URL, br())
		if code != http.StatusTooManyRequests {
			t.Fatalf("shed %d: HTTP %d, want 429", i, code)
		}
		if out.Status != StatusOverloaded {
			t.Fatalf("shed %d: status %q, want %q", i, out.Status, StatusOverloaded)
		}
		if out.Reservation != nil {
			t.Fatalf("shed %d: shed response carries a reservation", i)
		}
	}
	if reg != nil {
		if got := reg.Counter("server.shed").Value(); got != sheds {
			t.Errorf("server.shed = %d, want %d (must match client-observed sheds)", got, sheds)
		}
	}
	if got := s.StatsSnapshot().Shed; got != sheds {
		t.Errorf("requests_shed = %d, want %d (must match client-observed sheds)", got, sheds)
	}

	// Open the gate: every queued booking settles.
	close(gate)
	for i, ch := range append([]chan BookResponse{firstDone}, resps...) {
		select {
		case out := <-ch:
			if out.Status != StatusAccepted && out.Status != StatusRejected {
				t.Errorf("queued booking %d settled as %q", i, out.Status)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("queued booking %d never settled", i)
		}
	}
}

// TestBatchLoopCollectsQueuedBookings covers the multi-item batch path:
// with five bookings queued before the gate opens, BatchSize 4 must admit
// them as a batch of four and a batch of one, in the order they were
// queued.
func TestBatchLoopCollectsQueuedBookings(t *testing.T) {
	rc := testRunConfig(t, 2, 11)
	reg := obs.New()
	rc.Obs = reg
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	rc.Trace = tw
	gate := make(chan struct{})
	s, _ := newTestServer(t, Config{
		Run: rc, BatchSize: 4, QueueDepth: 8, testGate: gate,
	})

	// Enqueued directly, one after the other, so queue order is id order:
	// the engine pops the first and parks on the gate, four stay queued.
	queued := make([]*pending, 5)
	for i := range queued {
		p, err := s.newPending(BookRequest{
			Src:      EndpointRef{Kind: "ground", Index: 0},
			Dst:      EndpointRef{Kind: "ground", Index: 1},
			RateMbps: 600,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.enqueue(p); err != nil {
			t.Fatal(err)
		}
		queued[i] = p
	}
	close(gate)
	for i, p := range queued {
		select {
		case <-p.done:
			if st := p.resv.Status; st != StatusAccepted && st != StatusRejected {
				t.Errorf("booking %d settled as %q", i, st)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("booking %d never settled", i)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("server.batches").Value(); got != 2 {
		t.Errorf("server.batches = %d, want 2 (a batch of four, then one)", got)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var admitted []int
	for _, r := range records {
		if r.Kind == trace.KindDecision {
			admitted = append(admitted, r.RequestID)
		}
	}
	if want := []int{1, 2, 3, 4, 5}; !reflect.DeepEqual(admitted, want) {
		t.Errorf("engine admitted reservations in order %v, want %v", admitted, want)
	}
}

// TestGracefulDrain verifies drain-then-stop: Shutdown stops intake
// (healthz 503, bookings refused with StatusDraining) but every already
// queued request is still decided before Shutdown returns.
func TestGracefulDrain(t *testing.T) {
	rc := testRunConfig(t, 2, 8)
	gate := make(chan struct{})
	s, hs := newTestServer(t, Config{
		Run: rc, BatchSize: 1, QueueDepth: 4, testGate: gate,
	})

	br := BookRequest{
		Src:      EndpointRef{Kind: "ground", Index: 2},
		Dst:      EndpointRef{Kind: "ground", Index: 3},
		RateMbps: 700,
	}
	// Queue two bookings behind the stalled engine.
	out1, out2 := make(chan BookResponse, 1), make(chan BookResponse, 1)
	for _, ch := range []chan BookResponse{out1, out2} {
		ch := ch
		go func() {
			_, out := postBook(t, hs.URL, br)
			ch <- out
		}()
	}
	waitFor(t, func() bool { return len(s.queue) >= 1 && s.ctrBatches.Value() == 0 })

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// Draining: new intake refused, health reports it.
	waitFor(t, func() bool {
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	code, out := postBook(t, hs.URL, br)
	if code != http.StatusServiceUnavailable || out.Status != StatusDraining {
		t.Fatalf("booking while draining: HTTP %d status %q, want 503 %q", code, out.Status, StatusDraining)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i, ch := range []chan BookResponse{out1, out2} {
		select {
		case got := <-ch:
			if got.Status != StatusAccepted && got.Status != StatusRejected {
				t.Errorf("in-flight booking %d settled as %q, want a decision", i, got.Status)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("in-flight booking %d lost during drain", i)
		}
	}
	if res, err := s.Result(); err != nil || res == nil {
		t.Fatalf("Result after drain: %v, %v", res, err)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestRealtimeClockExpiry drives a real-time clock with a fake time
// source: requests whose declared window has wholly passed are rejected
// as expired without touching the engine, and arrivals past the horizon
// are rejected as horizon-exhausted.
func TestRealtimeClockExpiry(t *testing.T) {
	rc := testRunConfig(t, 2, 9)
	reg := obs.New()
	rc.Obs = reg
	var mu sync.Mutex
	now := testEpoch
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	_, hs := newTestServer(t, Config{
		Run:       rc,
		ClockRate: 1, // one slot per second
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		},
	})

	// Clock at slot 10: a window declared as [2,5] has expired.
	advance(10 * time.Second)
	start, end := 2, 5
	code, out := postBook(t, hs.URL, BookRequest{
		Src:       EndpointRef{Kind: "ground", Index: 0},
		Dst:       EndpointRef{Kind: "ground", Index: 1},
		RateMbps:  600,
		StartSlot: &start, EndSlot: &end,
	})
	if code != http.StatusOK {
		t.Fatalf("expired booking: HTTP %d", code)
	}
	if out.Status != StatusRejected || out.Reservation.Reason != ReasonExpired {
		t.Fatalf("expired booking: %+v, want rejected/%s", out, ReasonExpired)
	}
	if out.Reservation.ArrivalSlot != 10 {
		t.Errorf("expired booking arrival slot = %d, want 10", out.Reservation.ArrivalSlot)
	}
	if got := reg.Counter("server.expired").Value(); got != 1 {
		t.Errorf("server.expired = %d, want 1", got)
	}

	// A fresh booking at slot 10 reaches the engine and gets a real
	// decision.
	code, out = postBook(t, hs.URL, BookRequest{
		Src:      EndpointRef{Kind: "ground", Index: 0},
		Dst:      EndpointRef{Kind: "ground", Index: 1},
		RateMbps: 600, DurationSlots: 3,
	})
	if code != http.StatusOK || (out.Status != StatusAccepted && out.Status != StatusRejected) {
		t.Fatalf("live booking: HTTP %d %+v", code, out)
	}
	if out.Status == StatusAccepted && out.Reservation.Price <= 0 {
		t.Errorf("accepted booking has price %v, want > 0", out.Reservation.Price)
	}

	// Clock past the horizon: bookings are horizon-exhausted.
	advance(time.Duration(48) * time.Second)
	code, out = postBook(t, hs.URL, BookRequest{
		Src:      EndpointRef{Kind: "ground", Index: 0},
		Dst:      EndpointRef{Kind: "ground", Index: 1},
		RateMbps: 600,
	})
	if code != http.StatusOK {
		t.Fatalf("post-horizon booking: HTTP %d", code)
	}
	if out.Status != StatusRejected || out.Reservation.Reason != ReasonHorizonExhausted {
		t.Fatalf("post-horizon booking: %+v, want rejected/%s", out, ReasonHorizonExhausted)
	}
}

// TestAPIEndpoints covers the read-side API: reservations round-trip,
// stats fields, config echo, validation failures.
func TestAPIEndpoints(t *testing.T) {
	rc := testRunConfig(t, 2, 10)
	reg := obs.New()
	rc.Obs = reg
	s, hs := newTestServer(t, Config{Run: rc, QueueDepth: 8})

	// Validation failures are 400 with an error body.
	for name, br := range map[string]BookRequest{
		"bad kind":  {Src: EndpointRef{Kind: "lunar", Index: 0}, Dst: EndpointRef{Kind: "ground", Index: 1}, RateMbps: 1},
		"bad index": {Src: EndpointRef{Kind: "ground", Index: 99}, Dst: EndpointRef{Kind: "ground", Index: 1}, RateMbps: 1},
		"same src":  {Src: EndpointRef{Kind: "ground", Index: 1}, Dst: EndpointRef{Kind: "ground", Index: 1}, RateMbps: 1},
		"zero rate": {Src: EndpointRef{Kind: "ground", Index: 0}, Dst: EndpointRef{Kind: "ground", Index: 1}},
		"neg dur":   {Src: EndpointRef{Kind: "ground", Index: 0}, Dst: EndpointRef{Kind: "ground", Index: 1}, RateMbps: 1, DurationSlots: -2},
	} {
		if code, _ := postBook(t, hs.URL, br); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}
	resp, err := http.Post(hs.URL+"/v1/book", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: HTTP %d, want 400", resp.StatusCode)
	}

	// A real booking is retrievable by id.
	code, out := postBook(t, hs.URL, BookRequest{
		Src:      EndpointRef{Kind: "ground", Index: 0},
		Dst:      EndpointRef{Kind: "ground", Index: 3},
		RateMbps: 800, DurationSlots: 2,
	})
	if code != http.StatusOK {
		t.Fatalf("booking: HTTP %d", code)
	}
	resp, err = http.Get(fmt.Sprintf("%s/v1/reservations/%d", hs.URL, out.Reservation.ID))
	if err != nil {
		t.Fatal(err)
	}
	var got Reservation
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !reflect.DeepEqual(got, *out.Reservation) {
		t.Errorf("reservation lookup = %+v, want %+v", got, *out.Reservation)
	}

	// Unknown and malformed ids.
	for _, path := range []string{"/v1/reservations/424242", "/v1/reservations/abc"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: HTTP %d, want 404/400", path, resp.StatusCode)
		}
	}

	// Stats reflect the decided booking.
	resp, err = http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Total != 1 || st.Algorithm != s.Algorithm() || st.Horizon != 48 || st.QueueCapacity != 8 {
		t.Errorf("stats = %+v", st)
	}

	// Config exposes the bookable pairs and workload defaults.
	resp, err = http.Get(hs.URL + "/v1/config")
	if err != nil {
		t.Fatal(err)
	}
	var cfgOut ConfigResponse
	if err := json.NewDecoder(resp.Body).Decode(&cfgOut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cfgOut.Pairs) != len(testPairs()) || cfgOut.Horizon != 48 {
		t.Errorf("config = %+v", cfgOut)
	}
	if cfgOut.Workload.Valuation != rc.Workload.Valuation {
		t.Errorf("config valuation = %v, want %v", cfgOut.Workload.Valuation, rc.Workload.Valuation)
	}

	// The admit-latency histogram saw the decided booking.
	if got := reg.Histogram("server.admit_latency", nil).Snapshot().Count; got < 1 {
		t.Errorf("server.admit_latency count = %d, want >= 1", got)
	}
}

// TestSlotClock pins both clock modes.
func TestSlotClock(t *testing.T) {
	base := testEpoch
	rt := newSlotClock(2, base) // two slots per second
	if !rt.realtime() {
		t.Fatal("rate 2 should be a real-time clock")
	}
	for _, tc := range []struct {
		after time.Duration
		want  int
	}{
		{0, 0}, {499 * time.Millisecond, 0}, {500 * time.Millisecond, 1},
		{3 * time.Second, 6}, {-time.Second, 0},
	} {
		if got := rt.now(base.Add(tc.after)); got != tc.want {
			t.Errorf("realtime now(+%v) = %d, want %d", tc.after, got, tc.want)
		}
	}
	rt.observe(99) // must be ignored
	if got := rt.now(base); got != 0 {
		t.Errorf("realtime clock moved on observe: %d", got)
	}

	mx := newSlotClock(0, base)
	if mx.realtime() {
		t.Fatal("rate 0 should be arrival-driven")
	}
	if got := mx.now(base.Add(time.Hour)); got != 0 {
		t.Errorf("arrival-driven clock advanced with wall time: %d", got)
	}
	mx.observe(7)
	mx.observe(3) // never backwards
	if got := mx.now(base); got != 7 {
		t.Errorf("arrival-driven now = %d, want 7", got)
	}
}

// waitFor polls cond until true or the deadline trips.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// countingBody counts the bytes a handler reads from a request body.
type countingBody struct {
	r    *bytes.Reader
	read int
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += n
	return n, err
}

// bookCase is one row of what POST /v1/book answers for a body, on a
// server in the given state.
type bookCase struct {
	name string
	srv  string // "idle", "full" (engine parked, queue full) or "draining"
	body []byte
	code int
	// 400 and 413 answer the error envelope; errHas, when set, must be
	// named in it however often the body is sent.
	errHas string
	// 200, 429 and 503 answer a booking line with this status; for 200,
	// reason is the reservation's exact reason ("" for any decision the
	// engine made) and end, when non-negative, its end slot.
	status string
	reason string
	end    int
}

// bookCases is TestBookBodyOutcomes's table for a server of the given
// horizon; FuzzBookBody starts from its bodies.
func bookCases(horizon int) []bookCase {
	const valid = `{"src":{"kind":"ground","index":0},"dst":{"kind":"ground","index":3},"rate_mbps":800,"duration_slots":2}`
	fields := func(extra string) []byte {
		return []byte(`{"src":{"kind":"ground","index":0},"dst":{"kind":"ground","index":3},"rate_mbps":800,` + extra + `}`)
	}
	return []bookCase{
		{name: "empty body", srv: "idle", code: http.StatusBadRequest},
		{name: "truncated JSON", srv: "idle", body: []byte(valid[:len(valid)/2]), code: http.StatusBadRequest},
		{name: "unknown endpoint kind", srv: "idle", code: http.StatusBadRequest,
			body: []byte(`{"src":{"kind":"lunar","index":0},"dst":{"kind":"ground","index":1},"rate_mbps":1}`)},
		{name: "oversize body", srv: "idle", body: append(bytes.Repeat([]byte(" "), 1<<20), valid...), code: http.StatusRequestEntityTooLarge},
		{name: "two negative slots", srv: "idle", body: fields(`"duration_slots":2,"end_slot":-2,"start_slot":-1`),
			code: http.StatusBadRequest, errHas: "start_slot"},
		{name: "full queue", srv: "full", body: []byte(valid), code: http.StatusTooManyRequests, status: StatusOverloaded},
		{name: "draining", srv: "draining", body: []byte(valid), code: http.StatusServiceUnavailable, status: StatusDraining},
		// start + duration − 1 overflows from clock slot 2 on: the window
		// must saturate at the horizon, not wrap negative and expire.
		{name: "duration past the horizon", srv: "idle", body: fields(`"arrival_slot":2,"duration_slots":9223372036854775807`),
			code: http.StatusOK, status: "decided", end: horizon - 1},
		{name: "start at the horizon", srv: "idle", body: fields(fmt.Sprintf(`"duration_slots":2,"start_slot":%d`, horizon)),
			code: http.StatusOK, status: StatusRejected, reason: ReasonHorizonExhausted, end: -1},
		{name: "valid", srv: "idle", body: []byte(valid), code: http.StatusOK, status: "decided", end: -1},
	}
}

// bookLine checks a 200 answer to POST /v1/book: one compact JSON line
// holding a decided reservation whose window lies inside the horizon
// unless it is expired or horizon-exhausted. It returns the reservation
// or what is wrong with the line.
func bookLine(body []byte, horizon int) (Reservation, string) {
	line, ok := bytes.CutSuffix(body, []byte("\n"))
	var compact bytes.Buffer
	if err := json.Compact(&compact, line); !ok || err != nil || !bytes.Equal(compact.Bytes(), line) {
		return Reservation{}, fmt.Sprintf("not one compact JSON line (%v)", err)
	}
	var out BookResponse
	if err := json.Unmarshal(line, &out); err != nil || out.Reservation == nil {
		return Reservation{}, fmt.Sprintf("not a booking response (%v)", err)
	}
	r := *out.Reservation
	switch {
	case out.Status != r.Status || (r.Status != StatusAccepted && r.Status != StatusRejected):
		return r, fmt.Sprintf("status %q, reservation status %q", out.Status, r.Status)
	case r.Reason == ReasonExpired || r.Reason == ReasonHorizonExhausted:
	case r.StartSlot > r.EndSlot || r.EndSlot >= horizon || r.StartSlot < 0:
		return r, fmt.Sprintf("%s window [%d, %d] outside [0, %d)", r.Status, r.StartSlot, r.EndSlot, horizon)
	}
	return r, ""
}

// isErrorEnvelope reports whether body is the uniform {"error": ...}
// envelope.
func isErrorEnvelope(body []byte) bool {
	var envelope map[string]string
	return json.Unmarshal(body, &envelope) == nil && len(envelope) == 1 && envelope["error"] != ""
}

// TestBookBodyOutcomes is the table of what POST /v1/book answers for one
// body, against an arrival-driven clock: 400 for a body that is not one
// valid booking and 413 for one over the size bound (read no further than
// the bound), both in the uniform {"error": ...} envelope; 429 with the
// queue full and 503 while draining, each the bare status; and 200 with
// one compact booking line whose window saturates at the horizon — a
// duration past it ends at its last slot, a window starting at or past it
// is horizon-exhausted.
func TestBookBodyOutcomes(t *testing.T) {
	rc := testRunConfig(t, 2, 10)
	servers := map[string]*Server{}
	servers["idle"], _ = newTestServer(t, Config{Run: rc, QueueDepth: 8})

	gate := make(chan struct{})
	full, _ := newTestServer(t, Config{Run: rc, BatchSize: 1, QueueDepth: 1, testGate: gate})
	t.Cleanup(func() { close(gate) }) // before the server's own cleanup drains it
	for i := 0; i < 2; i++ {
		p, err := full.newPending(BookRequest{Src: EndpointRef{"ground", 0}, Dst: EndpointRef{"ground", 1}, RateMbps: 600})
		if err != nil {
			t.Fatal(err)
		}
		if err := full.enqueue(p); err != nil {
			t.Fatal(err)
		}
		// The engine takes the first and parks on the gate; the second
		// fills the one-slot queue.
		waitFor(t, func() bool { return len(full.queue) == i })
	}
	servers["full"] = full

	draining, _ := newTestServer(t, Config{Run: rc})
	if err := draining.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	servers["draining"] = draining

	horizon := servers["idle"].Horizon()
	for _, tc := range bookCases(horizon) {
		s := servers[tc.srv]
		book := func() (*httptest.ResponseRecorder, int) {
			cb := &countingBody{r: bytes.NewReader(tc.body)}
			rec := httptest.NewRecorder()
			s.handleBook(rec, httptest.NewRequest(http.MethodPost, "/v1/book", cb))
			return rec, cb.read
		}
		rec, read := book()
		if rec.Code != tc.code {
			t.Errorf("%s: HTTP %d, want %d: %s", tc.name, rec.Code, tc.code, rec.Body.String())
			continue
		}
		if read > maxBookBodyBytes+1 {
			t.Errorf("%s: handler read %d bytes of the body, bound is %d", tc.name, read, maxBookBodyBytes)
		}
		switch tc.code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if !isErrorEnvelope(rec.Body.Bytes()) {
				t.Errorf("%s: body %q is not the error envelope", tc.name, rec.Body.String())
			}
			for rep := 0; tc.errHas != "" && rep < 16; rep++ {
				if again, _ := book(); !bytes.Contains(again.Body.Bytes(), []byte(tc.errHas)) {
					t.Errorf("%s: answered %q, want %q named every time", tc.name, again.Body.String(), tc.errHas)
					break
				}
			}
		case http.StatusOK:
			r, problem := bookLine(rec.Body.Bytes(), horizon)
			switch {
			case problem != "":
				t.Errorf("%s: %s: %s", tc.name, problem, rec.Body.String())
			case tc.status != "decided" && r.Status != tc.status:
				t.Errorf("%s: status %q, want %q", tc.name, r.Status, tc.status)
			case r.Reason != tc.reason && (tc.reason != "" || r.Reason == ReasonExpired || r.Reason == ReasonHorizonExhausted):
				t.Errorf("%s: reason %q, want %q", tc.name, r.Reason, cmp.Or(tc.reason, "an engine decision"))
			case tc.end >= 0 && r.EndSlot != tc.end:
				t.Errorf("%s: window [%d, %d], want it to end at slot %d", tc.name, r.StartSlot, r.EndSlot, tc.end)
			}
		default:
			var out BookResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Status != tc.status || out.Reservation != nil {
				t.Errorf("%s: body %q, want the bare %q status", tc.name, rec.Body.String(), tc.status)
			}
		}
	}
}

// FuzzBookBody drives handleBook with arbitrary bodies against a
// small-scale server with an arrival-driven clock. Nothing may panic;
// every answer is 200, 400 or 413; and the body is the error envelope or
// one compact booking line whose window lies inside the horizon unless
// it is expired or horizon-exhausted. The corpus starts from
// TestBookBodyOutcomes's bodies, bar the megabyte one.
func FuzzBookBody(f *testing.F) {
	s, _ := newTestServer(f, Config{Run: testRunConfig(f, 2, 10)})
	horizon := s.Horizon()
	for _, tc := range bookCases(horizon) {
		if len(tc.body) <= maxBookBodyBytes {
			f.Add(tc.body)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.handleBook(rec, httptest.NewRequest(http.MethodPost, "/v1/book", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if !isErrorEnvelope(rec.Body.Bytes()) {
				t.Fatalf("HTTP %d with body %q, want the error envelope", rec.Code, rec.Body.String())
			}
		case http.StatusOK:
			if _, problem := bookLine(rec.Body.Bytes(), horizon); problem != "" {
				t.Fatalf("%s: %s", problem, rec.Body.String())
			}
		default:
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
		}
	})
}
