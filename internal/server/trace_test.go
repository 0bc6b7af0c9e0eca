package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"spacebooking/internal/obs"
	"spacebooking/internal/trace"
)

// auditLines parses a JSONL audit file, failing on any malformed line —
// the graceful-drain guarantee is that the file is never truncated
// mid-record.
func auditLines(t *testing.T, path string) []trace.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []trace.Record
	if err := trace.EachLine(f, func(rec trace.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatalf("audit log is not complete records: %v", err)
	}
	return recs
}

// phaseSet indexes a record's phases by name.
func phaseSet(rec trace.Record) map[string]bool {
	out := make(map[string]bool, len(rec.Phases))
	for _, sp := range rec.Phases {
		out[sp.Name] = true
	}
	return out
}

// TestStatsQueueHighWaterAndShed pins the new /v1/stats fields: the
// queue-depth high-water mark sticks at its maximum and the cumulative
// shed count is exposed alongside it.
func TestStatsQueueHighWaterAndShed(t *testing.T) {
	rc := testRunConfig(t, 2, 11)
	rc.Obs = obs.New()
	gate := make(chan struct{})
	s, hs := newTestServer(t, Config{
		Run: rc, BatchSize: 1, QueueDepth: 2, testGate: gate,
	})
	br := BookRequest{
		Src:      EndpointRef{Kind: "ground", Index: 0},
		Dst:      EndpointRef{Kind: "ground", Index: 1},
		RateMbps: 500,
	}

	getStats := func() Stats {
		t.Helper()
		resp, err := http.Get(hs.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := getStats(); st.QueueHighWater != 0 || st.Shed != 0 {
		t.Fatalf("pristine stats: high water %d, shed %d, want 0/0", st.QueueHighWater, st.Shed)
	}

	// Stall the engine on the first booking, then fill the queue.
	pending := make([]chan BookResponse, 3)
	for i := range pending {
		pending[i] = make(chan BookResponse, 1)
		ch := pending[i]
		go func() {
			_, out := postBook(t, hs.URL, br)
			ch <- out
		}()
		if i == 0 {
			waitFor(t, func() bool { return s.ctrBatches.Value() == 0 && len(s.queue) == 0 })
		}
	}
	waitFor(t, func() bool { return len(s.queue) == 2 })

	// Queue full: one more sheds.
	if code, _ := postBook(t, hs.URL, br); code != http.StatusTooManyRequests {
		t.Fatalf("shed booking: HTTP %d, want 429", code)
	}

	st := getStats()
	if st.QueueHighWater != 2 {
		t.Errorf("queue_high_water = %d, want 2", st.QueueHighWater)
	}
	if st.Shed != 1 {
		t.Errorf("requests_shed = %d, want 1", st.Shed)
	}
	if len(st.SLO) != 2 {
		t.Errorf("stats carries %d SLO classes, want 2: %+v", len(st.SLO), st.SLO)
	}

	close(gate)
	for _, ch := range pending {
		<-ch
	}
	// The high-water mark sticks after the queue drains.
	waitFor(t, func() bool { return len(s.queue) == 0 })
	if st := getStats(); st.QueueHighWater != 2 {
		t.Errorf("queue_high_water after drain = %d, want 2 (must be sticky)", st.QueueHighWater)
	}
}

// TestGracefulDrainFlushesAudit extends the drain guarantee to the
// audit pipeline: Shutdown with traced requests still queued must flush
// every record completely into the JSONL file — exactly one parseable
// line per decision, nothing truncated.
func TestGracefulDrainFlushesAudit(t *testing.T) {
	rc := testRunConfig(t, 2, 12)
	gate := make(chan struct{})
	auditPath := filepath.Join(t.TempDir(), "audit.jsonl")
	const queued = 3
	s, hs := newTestServer(t, Config{
		Run: rc, BatchSize: 1, QueueDepth: queued + 1, testGate: gate,
		Trace: TraceConfig{SampleRate: 1, AuditPath: auditPath},
	})

	br := BookRequest{
		Src:      EndpointRef{Kind: "ground", Index: 2},
		Dst:      EndpointRef{Kind: "ground", Index: 3},
		RateMbps: 600,
	}
	chans := make([]chan BookResponse, queued)
	for i := range chans {
		chans[i] = make(chan BookResponse, 1)
		ch := chans[i]
		id := fmt.Sprintf("drain-%d", i)
		go func() {
			req := br
			req.RequestID = id
			_, out := postBook(t, hs.URL, req)
			ch <- out
		}()
	}
	waitFor(t, func() bool { return len(s.queue) >= queued-1 && s.ctrBatches.Value() == 0 })

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool {
		s.lifeMu.RLock()
		defer s.lifeMu.RUnlock()
		return s.draining
	})
	// A refusal during the drain is audited too (before the sink closes:
	// the engine is still parked on the gate).
	refused := br
	refused.RequestID = "drain-refused"
	if code, _ := postBook(t, hs.URL, refused); code != http.StatusServiceUnavailable {
		t.Fatalf("booking while draining: HTTP %d, want 503", code)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i, ch := range chans {
		select {
		case out := <-ch:
			if out.Status != StatusAccepted && out.Status != StatusRejected {
				t.Errorf("queued booking %d settled as %q", i, out.Status)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("queued booking %d lost during drain", i)
		}
	}

	recs := auditLines(t, auditPath)
	if len(recs) != queued+1 {
		t.Fatalf("audit log holds %d records, want %d (every queued decision plus the draining refusal)", len(recs), queued+1)
	}
	seen := map[string]int{}
	for _, rec := range recs {
		seen[rec.ClientID]++
		if !rec.Sampled || len(rec.Phases) == 0 {
			t.Errorf("record %s (outcome %s): sampled=%v phases=%d, want full timeline at sample rate 1",
				rec.ClientID, rec.Outcome, rec.Sampled, len(rec.Phases))
		}
	}
	for i := 0; i < queued; i++ {
		if id := fmt.Sprintf("drain-%d", i); seen[id] != 1 {
			t.Errorf("client id %s has %d audit records, want 1", id, seen[id])
		}
	}
	if seen["drain-refused"] != 1 {
		t.Errorf("draining refusal has %d audit records, want 1", seen["drain-refused"])
	}
	if st := s.StatsSnapshot(); st.Trace == nil || st.Trace.Dropped != 0 {
		t.Errorf("trace stats = %+v, want present with 0 dropped", st.Trace)
	}
}

// TestAuditExactlyOnce is the end-to-end acceptance gate: under
// concurrent load with client-assigned request ids, every request —
// decided or refused — resolves to exactly one audit record, and every
// rejected or shed request is always sampled with a complete phase
// timeline even at head-sample rate 0.
func TestAuditExactlyOnce(t *testing.T) {
	rc := testRunConfig(t, 2, 13)
	rc.Obs = obs.New()
	gate := make(chan struct{})
	auditPath := filepath.Join(t.TempDir(), "audit.jsonl")
	s, hs := newTestServer(t, Config{
		Run: rc, BatchSize: 4, QueueDepth: 2, testGate: gate,
		Trace: TraceConfig{Enabled: true, AuditPath: auditPath}, // head rate 0: tail sampling only
		// No booking is slow, however loaded the host: accepted ones stay
		// unsampled.
		SLO: SLOConfig{LatencyObjective: time.Hour},
	})
	br := func(id string) BookRequest {
		return BookRequest{
			Src:       EndpointRef{Kind: "ground", Index: 0},
			Dst:       EndpointRef{Kind: "ground", Index: 3},
			RateMbps:  700,
			RequestID: id,
		}
	}
	// London→Tokyo at slot 8 is feasible in the test constellation, so
	// the burst mixes real accepts with capacity rejections.
	brFeasible := func(id string) BookRequest {
		arrival := 8
		return BookRequest{
			Src:         EndpointRef{Kind: "ground", Index: 2},
			Dst:         EndpointRef{Kind: "ground", Index: 3},
			RateMbps:    700,
			ArrivalSlot: &arrival,
			RequestID:   id,
		}
	}

	// Phase 1 — deterministic sheds: park the engine, fill the queue,
	// overflow it.
	parked := make(chan BookResponse, 1)
	go func() {
		_, out := postBook(t, hs.URL, br("req-parked"))
		parked <- out
	}()
	waitFor(t, func() bool { return s.ctrBatches.Value() == 0 && len(s.queue) == 0 })
	queued := make([]chan BookResponse, 2)
	for i := range queued {
		queued[i] = make(chan BookResponse, 1)
		ch := queued[i]
		id := fmt.Sprintf("req-queued-%d", i)
		go func() {
			_, out := postBook(t, hs.URL, br(id))
			ch <- out
		}()
	}
	waitFor(t, func() bool { return len(s.queue) == 2 })
	shedIDs := []string{"req-shed-0", "req-shed-1"}
	for _, id := range shedIDs {
		if code, _ := postBook(t, hs.URL, br(id)); code != http.StatusTooManyRequests {
			t.Fatalf("%s: HTTP %d, want 429", id, code)
		}
	}
	gate <- struct{}{} // release exactly one batch
	<-parked
	for _, ch := range queued {
		<-ch
	}

	// Phase 2 — concurrent decided load (accepts and engine rejections).
	const burst = 24
	var wg sync.WaitGroup
	decided := make([]BookResponse, burst)
	close(gate) // engine free-runs from here on
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, out := postBook(t, hs.URL, brFeasible(fmt.Sprintf("req-burst-%d", i)))
			decided[i] = out
		}(i)
	}
	wg.Wait()
	for i, out := range decided {
		// A burst request may still shed against the depth-2 queue;
		// shed, accepted and rejected are all audited outcomes.
		if out.Status != StatusAccepted && out.Status != StatusRejected && out.Status != StatusOverloaded {
			t.Fatalf("burst request %d settled as %q", i, out.Status)
		}
	}

	// Every client id resolves through the trace endpoint before drain.
	for _, id := range []string{"req-parked", "req-shed-0"} {
		resp, err := http.Get(hs.URL + "/v1/requests/" + id + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		var rec trace.Record
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || rec.ClientID != id {
			t.Fatalf("GET /v1/requests/%s/trace: HTTP %d, client id %q", id, resp.StatusCode, rec.ClientID)
		}
		// The same record resolves by numeric server id.
		resp, err = http.Get(fmt.Sprintf("%s/v1/requests/%d/trace", hs.URL, rec.RequestID))
		if err != nil {
			t.Fatal(err)
		}
		var byNum trace.Record
		if err := json.NewDecoder(resp.Body).Decode(&byNum); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if byNum.ClientID != id {
			t.Fatalf("trace by server id %d resolved client %q, want %q", rec.RequestID, byNum.ClientID, id)
		}
	}

	// /debug/traces.json serves the recent buffer.
	resp, err := http.Get(hs.URL + "/debug/traces.json?n=5")
	if err != nil {
		t.Fatal(err)
	}
	var recent struct {
		Count   int            `json:"count"`
		Records []trace.Record `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&recent); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || recent.Count == 0 || len(recent.Records) != recent.Count {
		t.Fatalf("/debug/traces.json: HTTP %d count %d records %d", resp.StatusCode, recent.Count, len(recent.Records))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	recs := auditLines(t, auditPath)
	wantIDs := map[string]bool{"req-parked": true, "req-queued-0": true, "req-queued-1": true,
		"req-shed-0": true, "req-shed-1": true}
	for i := 0; i < burst; i++ {
		wantIDs[fmt.Sprintf("req-burst-%d", i)] = true
	}
	counts := map[string]int{}
	for _, rec := range recs {
		counts[rec.ClientID]++
	}
	if len(recs) != len(wantIDs) {
		t.Errorf("audit log holds %d records, want %d", len(recs), len(wantIDs))
	}
	for id := range wantIDs {
		if counts[id] != 1 {
			t.Errorf("request id %s has %d audit records, want exactly 1", id, counts[id])
		}
	}

	// Tail-sampling invariants at head rate 0.
	for _, rec := range recs {
		phases := phaseSet(rec)
		switch rec.Outcome {
		case StatusOverloaded:
			if !rec.Sampled || !phases[PhaseIngressParse] || !phases[PhaseQueueWait] {
				t.Errorf("shed record %s: sampled=%v phases=%v, want sampled with parse+queue timeline",
					rec.ClientID, rec.Sampled, phases)
			}
		case StatusRejected, StatusError:
			for _, want := range []string{PhaseIngressParse, PhaseQueueWait, PhaseBatchWait, PhaseEngineAdmit,
				PhaseEngineSearch, PhaseEnginePricing, PhaseEngineCommit} {
				if !phases[want] {
					t.Errorf("%s record %s: missing phase %s (got %v)", rec.Outcome, rec.ClientID, want, phases)
				}
			}
			if !rec.Sampled {
				t.Errorf("%s record %s not sampled; rejections must always carry their timeline", rec.Outcome, rec.ClientID)
			}
		case StatusAccepted:
			if rec.Sampled {
				t.Errorf("accepted record %s sampled at head rate 0 below the latency objective", rec.ClientID)
			}
			if rec.Price <= 0 || rec.TotalHops <= 0 {
				t.Errorf("accepted record %s: price %v hops %d, want positive", rec.ClientID, rec.Price, rec.TotalHops)
			}
		default:
			t.Errorf("unexpected outcome %q for %s", rec.Outcome, rec.ClientID)
		}
		if rec.TotalNs < 0 {
			t.Errorf("record %s: negative total %d", rec.ClientID, rec.TotalNs)
		}
	}

	// The engine decided every accepted or rejected booking here, so
	// those records carry the commit seqs 1..n between them; a shed one
	// has none.
	var seqs []int
	for _, rec := range recs {
		if decided := rec.Outcome == StatusAccepted || rec.Outcome == StatusRejected; decided != (rec.Seq > 0) {
			t.Errorf("%s record %s carries seq %d", rec.Outcome, rec.ClientID, rec.Seq)
		}
		if rec.Seq > 0 {
			seqs = append(seqs, rec.Seq)
		}
	}
	slices.Sort(seqs)
	for i, seq := range seqs {
		if seq != i+1 {
			t.Fatalf("decided seqs %v, want 1..%d", seqs, len(seqs))
		}
	}

	// At least one decided record shows engine work (searches happen on
	// any admission that reaches the engine).
	sawWork := false
	for _, rec := range recs {
		if rec.Outcome == StatusAccepted && rec.Searches > 0 {
			sawWork = true
			break
		}
	}
	if !sawWork {
		t.Error("no accepted record carries engine search counts")
	}
}

// TestSlowBookingSampled: at head rate 0 an accepted booking is sampled,
// with its phase timeline, exactly when its total latency reaches the
// SLO latency objective. The injected clock advances by step on every
// read, so a booking's latency is step times the reads it spans.
func TestSlowBookingSampled(t *testing.T) {
	const objective = 10 * time.Millisecond
	var mu sync.Mutex
	now, step := testEpoch, time.Duration(0)
	s, hs := newTestServer(t, Config{
		Run:   testRunConfig(t, 2, 15),
		Trace: TraceConfig{Enabled: true},
		SLO:   SLOConfig{LatencyObjective: objective},
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			now = now.Add(step)
			return now
		},
	})
	book := func(id string, d time.Duration) trace.Record {
		t.Helper()
		mu.Lock()
		step = d
		mu.Unlock()
		// London→Tokyo at slot 8 is feasible in the test constellation.
		arrival := 8
		code, out := postBook(t, hs.URL, BookRequest{Src: EndpointRef{Kind: "ground", Index: 2},
			Dst: EndpointRef{Kind: "ground", Index: 3}, RateMbps: 100, ArrivalSlot: &arrival, RequestID: id})
		if code != http.StatusOK || out.Status != StatusAccepted {
			t.Fatalf("booking %s: HTTP %d, status %q; want an accepted booking", id, code, out.Status)
		}
		var rec trace.Record
		waitFor(t, func() bool {
			for _, r := range s.sink.Recent(0) {
				if r.ClientID == id {
					rec = *r
					return true
				}
			}
			return false
		})
		return rec
	}

	fast := book("fast", 0)
	if fast.TotalNs >= objective.Nanoseconds() || fast.Sampled || len(fast.Phases) != 0 {
		t.Errorf("fast booking: total %d ns, sampled %v, %d phases; want unsampled below %v",
			fast.TotalNs, fast.Sampled, len(fast.Phases), objective)
	}
	slow := book("slow", objective)
	phases := phaseSet(slow)
	if slow.TotalNs < objective.Nanoseconds() || !slow.Sampled {
		t.Fatalf("slow booking: total %d ns, sampled %v; want sampled at or above %v", slow.TotalNs, slow.Sampled, objective)
	}
	for _, want := range []string{PhaseIngressParse, PhaseQueueWait, PhaseBatchWait, PhaseEngineAdmit, PhaseRespond} {
		if !phases[want] {
			t.Errorf("slow booking: missing phase %s (got %v)", want, phases)
		}
	}
}

// TestRequestTraceLookup: GET /v1/requests/{id}/trace matches the
// client-assigned request_id first and falls back to the server id, so a
// numeric client id resolves to its own booking.
func TestRequestTraceLookup(t *testing.T) {
	s, hs := newTestServer(t, Config{Run: testRunConfig(t, 2, 15), Trace: TraceConfig{Enabled: true}})
	br := func(clientID string) BookRequest {
		return BookRequest{Src: EndpointRef{Kind: "ground", Index: 0}, Dst: EndpointRef{Kind: "ground", Index: 1},
			RateMbps: 500, RequestID: clientID}
	}
	// Server ids 1, 2 and 3, in order: the third booking's client id
	// names the first booking's server id.
	for _, id := range []string{"first", "999999", "1"} {
		if code, _ := postBook(t, hs.URL, br(id)); code != http.StatusOK {
			t.Fatalf("booking %q: HTTP %d", id, code)
		}
	}
	waitFor(t, func() bool { return len(s.sink.Recent(0)) == 3 })
	for _, row := range []struct {
		path       string
		wantClient string
		wantServer int
	}{
		{"999999", "999999", 2},
		{"1", "1", 3},
		{"first", "first", 1},
		{"2", "999999", 2},
	} {
		resp, err := http.Get(hs.URL + "/v1/requests/" + row.path + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		var rec trace.Record
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || rec.ClientID != row.wantClient || rec.RequestID != row.wantServer {
			t.Errorf("GET /v1/requests/%s/trace: HTTP %d, client %q, server id %d (%v); want client %q, server id %d",
				row.path, resp.StatusCode, rec.ClientID, rec.RequestID, err, row.wantClient, row.wantServer)
		}
	}
}

// TestTraceEndpointsDisabled pins the disabled-tracing surface: both
// endpoints 404, stats carry no trace section, and bookings work.
func TestTraceEndpointsDisabled(t *testing.T) {
	rc := testRunConfig(t, 2, 14)
	_, hs := newTestServer(t, Config{Run: rc})
	code, out := postBook(t, hs.URL, BookRequest{
		Src: EndpointRef{Kind: "ground", Index: 0}, Dst: EndpointRef{Kind: "ground", Index: 1},
		RateMbps: 500, RequestID: "untraced",
	})
	if code != http.StatusOK {
		t.Fatalf("booking: HTTP %d", code)
	}
	if out.Reservation.ClientRequestID != "untraced" {
		t.Errorf("client request id %q not echoed", out.Reservation.ClientRequestID)
	}
	for _, path := range []string{"/v1/requests/untraced/trace", "/debug/traces.json"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with tracing disabled: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Trace != nil {
		t.Errorf("stats trace section present with tracing disabled: %+v", st.Trace)
	}
}
