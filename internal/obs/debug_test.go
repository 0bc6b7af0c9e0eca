package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// newTestMux serves a small populated registry through the debug mux.
func newTestMux() *http.ServeMux {
	r := New()
	r.Counter("live").Add(42)
	r.Sampler(8).Series("slot.accepted").Record(0, 3)
	return NewDebugMux(r)
}

func get(t *testing.T, mux *http.ServeMux, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

func TestDebugMuxMetricsJSONContentType(t *testing.T) {
	rec := get(t, newTestMux(), "/metrics.json")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var snap RegistrySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if snap.Counters["live"] != 42 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
}

// TestDebugMuxTimeseriesEndpoint reads the sampled series from the
// timeseries section of /metrics.json, which replaced /timeseries.json.
func TestDebugMuxTimeseriesEndpoint(t *testing.T) {
	rec := get(t, newTestMux(), "/metrics.json")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var snap RegistrySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if s, ok := snap.TimeSeries["slot.accepted"]; !ok || s.Total != 1 || s.Last() != 3 {
		t.Fatalf("timeseries = %+v", snap.TimeSeries)
	}

	// An empty registry serves an empty object, not null.
	rec = get(t, NewDebugMux(New()), "/metrics.json")
	if got := strings.TrimSpace(rec.Body.String()); got != "{}" {
		t.Fatalf("empty registry body = %q, want {}", got)
	}
}

func TestDebugMuxPrometheusEndpoint(t *testing.T) {
	rec := get(t, newTestMux(), "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != PromContentType {
		t.Fatalf("content type = %q, want %q", ct, PromContentType)
	}
	body := rec.Body.String()
	for _, want := range []string{"# TYPE live counter", "live 42", "# TYPE slot_accepted gauge"} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}

// TestDebugMuxTimeseriesExactlyFull serves a ring at exactly its
// capacity through /metrics.json: all samples present, zero dropped.
func TestDebugMuxTimeseriesExactlyFull(t *testing.T) {
	r := New()
	s := r.Sampler(3).Series("slot.accepted")
	for i := 0; i < 3; i++ {
		s.Record(int64(i), float64(i))
	}
	rec := get(t, NewDebugMux(r), "/metrics.json")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body RegistrySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	snap := body.TimeSeries["slot.accepted"]
	if snap.Capacity != 3 || snap.Total != 3 || len(snap.Slots) != 3 {
		t.Fatalf("exactly-full endpoint snapshot = %+v", snap)
	}
	if snap.Slots[0] != 0 || snap.Slots[2] != 2 || snap.Last() != 2 {
		t.Fatalf("sample order = %+v", snap)
	}
}

func TestDebugMuxIndexAndNotFound(t *testing.T) {
	rec := get(t, newTestMux(), "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("index status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("index content type = %q", ct)
	}
	body, _ := io.ReadAll(rec.Body)
	for _, want := range []string{"/metrics", "/metrics.json", "/debug/pprof/"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("index missing %q:\n%s", want, body)
		}
	}
	// The registry's sections are served only inside /metrics.json.
	for _, path := range []string{"/no/such/path", "/timeseries.json", "/hotspots.json"} {
		if rec := get(t, newTestMux(), path); rec.Code != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, rec.Code)
		}
	}
}

// TestDebugMuxContentLength pins the buffered-response contract: every
// debug endpoint declares an exact Content-Length matching its body, so
// a render failure can never truncate a response mid-stream.
func TestDebugMuxContentLength(t *testing.T) {
	mux := newTestMux()
	for _, path := range []string{"/", "/metrics", "/metrics.json"} {
		rec := get(t, mux, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status = %d", path, rec.Code)
		}
		cl := rec.Header().Get("Content-Length")
		if want := strconv.Itoa(rec.Body.Len()); cl != want {
			t.Errorf("%s Content-Length = %q, body is %s bytes", path, cl, want)
		}
	}
}

// TestServeBufferedRenderFailure verifies a failing renderer produces a
// clean 500 with the error as the whole body — no half-written 200.
func TestServeBufferedRenderFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	serveBuffered(rec, "application/json", func(w io.Writer) error {
		io.WriteString(w, `{"partial":`) // must never reach the client
		return errors.New("render exploded")
	})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	body := rec.Body.String()
	if strings.Contains(body, "partial") {
		t.Fatalf("partial render leaked into the response: %q", body)
	}
	if !strings.Contains(body, "render exploded") {
		t.Fatalf("error message missing from body: %q", body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("error content type = %q", ct)
	}
}

// TestDebugMuxNoRegistry pins the detached-registry path: 503, not a
// panic, when no registry is attached yet.
func TestDebugMuxNoRegistry(t *testing.T) {
	mux := NewDebugMux(nil)
	for _, path := range []string{"/metrics", "/metrics.json"} {
		if rec := get(t, mux, path); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s with nil registry: status = %d, want 503", path, rec.Code)
		}
	}
}
