package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("sim.requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("sim.requests") != c {
		t.Fatal("same name should return the same counter")
	}
	g := r.Gauge("sim.load")
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Fatalf("gauge = %v, want 0.75", got)
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Fatal("nil counter must stay zero")
	}
	g := r.Gauge("y")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge must stay zero")
	}
	h := r.Histogram("z", nil)
	h.Observe(1)
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram must stay empty")
	}
	r.StartPhase("p").End()
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Phases) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
}

// TestDisabledPathAllocsAndCost is the acceptance check that the
// disabled (nil-registry) fast path adds no allocations to hot paths.
func TestDisabledPathAllocsAndCost(t *testing.T) {
	var r *Registry
	c := r.Counter("hot")
	h := r.Histogram("hist", nil)
	g := r.Gauge("gauge")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		h.Observe(2.5)
		r.StartPhase("phase").End()
	})
	if allocs != 0 {
		t.Fatalf("disabled instruments allocated %v times per op, want 0", allocs)
	}
}

func TestEnabledCounterAllocs(t *testing.T) {
	r := New()
	c := r.Counter("hot")
	h := r.Histogram("hist", []float64{1, 2, 4})
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(1.5)
	})
	if allocs != 0 {
		t.Fatalf("enabled counter/histogram allocated %v times per op, want 0", allocs)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []float64{1, 2, 4, 8, 16})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v) / 10) // 0.1 .. 10.0
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if math.Abs(s.Sum-505.0) > 1e-9 {
		t.Fatalf("sum = %v, want 505", s.Sum)
	}
	if s.Min != 0.1 || s.Max != 10.0 {
		t.Fatalf("min/max = %v/%v, want 0.1/10", s.Min, s.Max)
	}
	// True quantiles: p50 = ~5.0, p95 = ~9.5, p99 = ~9.9. Bucketed
	// estimates interpolate, so allow one bucket of slack.
	if s.P50 < 4 || s.P50 > 6 {
		t.Fatalf("p50 = %v, want ~5", s.P50)
	}
	if s.P95 < 8 || s.P95 > 10 {
		t.Fatalf("p95 = %v, want ~9.5", s.P95)
	}
	if s.P99 < 8 || s.P99 > 10 {
		t.Fatalf("p99 = %v, want ~9.9", s.P99)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Fatalf("quantiles not monotone: %v %v %v", s.P50, s.P95, s.P99)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	r := New()
	h := r.Histogram("one", nil)
	h.Observe(0.125)
	s := h.Snapshot()
	if s.Count != 1 || s.Min != 0.125 || s.Max != 0.125 {
		t.Fatalf("snapshot = %+v", s)
	}
	for _, q := range []float64{s.P50, s.P95, s.P99} {
		if q != 0.125 {
			t.Fatalf("single-value quantile = %v, want 0.125", q)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := New()
	h := r.Histogram("over", []float64{1})
	h.Observe(100)
	h.Observe(200)
	s := h.Snapshot()
	if s.P99 < 100 || s.P99 > 200 {
		t.Fatalf("overflow p99 = %v, want within [100, 200]", s.P99)
	}
}

func TestPhases(t *testing.T) {
	r := New()
	sp := r.StartPhase("work")
	time.Sleep(time.Millisecond)
	sp.End()
	r.StartPhase("work").End()
	snap := r.Snapshot()
	if len(snap.Phases) != 1 {
		t.Fatalf("phases = %+v, want one", snap.Phases)
	}
	p := snap.Phases[0]
	if p.Name != "work" || p.Count != 2 {
		t.Fatalf("phase = %+v", p)
	}
	if p.TotalSeconds <= 0 {
		t.Fatalf("phase total = %v, want > 0", p.TotalSeconds)
	}
}

func TestWriteJSON(t *testing.T) {
	r := New()
	r.Counter("a.b").Add(7)
	r.Gauge("g").Set(2.5)
	r.Histogram("h", []float64{1}).Observe(0.5)
	r.StartPhase("p").End()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap RegistrySnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("WriteJSON output not valid JSON: %v\n%s", err, buf.String())
	}
	if snap.Counters["a.b"] != 7 || snap.Gauges["g"] != 2.5 {
		t.Fatalf("snapshot round-trip = %+v", snap)
	}
	if snap.Histograms["h"].Count != 1 || len(snap.Phases) != 1 {
		t.Fatalf("snapshot round-trip = %+v", snap)
	}
}

// TestConcurrentUse exercises every instrument from many goroutines
// with snapshots racing against updates; run under -race.
func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("hist", nil)
			g := r.Gauge("gauge")
			for j := 0; j < 500; j++ {
				c.Inc()
				h.Observe(float64(j) * 1e-4)
				g.Set(float64(j))
				sp := r.StartPhase("loop")
				sp.End()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = r.Snapshot()
				r.WriteJSON(io.Discard) //nolint:errcheck
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8*500 {
		t.Fatalf("shared counter = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("hist", nil).Snapshot().Count; got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
}

func TestDebugServer(t *testing.T) {
	r := New()
	r.Counter("live").Add(42)
	srv, err := StartDebugServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap RegistrySnapshot
	if err := json.Unmarshal(get("/metrics.json"), &snap); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	if snap.Counters["live"] != 42 {
		t.Fatalf("metrics.json counters = %+v", snap.Counters)
	}
	if body := get("/debug/pprof/"); !bytes.Contains(body, []byte("pprof")) {
		t.Fatalf("pprof index unexpected: %.100s", body)
	}
}
