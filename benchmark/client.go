package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"spacebooking/internal/server"
	"spacebooking/internal/sim"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// harness is the loopback plumbing shared by every served lap: one
// listener, one http.Server whose handler is swapped to the current lap's
// booking server, and one keep-alive client. Keeping the connections
// across laps keeps TCP set-up out of the latency samples.
type harness struct {
	ln     net.Listener
	srv    *http.Server
	served chan error
	cur    atomic.Pointer[http.ServeMux]
	client *http.Client
	url    string
}

func newHarness() (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{
		ln:     ln,
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/book",
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     servedConns,
				MaxIdleConnsPerHost: servedConns,
				DisableCompression:  true,
			},
		},
	}
	h.srv = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if mux := h.cur.Load(); mux != nil {
				mux.ServeHTTP(w, r)
				return
			}
			http.Error(w, "no lap running", http.StatusServiceUnavailable)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { h.served <- h.srv.Serve(ln) }()
	return h, nil
}

// close stops the HTTP server and waits for its goroutine.
func (h *harness) close() error {
	h.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.srv.Shutdown(ctx)
	if serr := <-h.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// attach builds a booking server and routes the harness to it.
func (h *harness) attach(cfg server.Config) (*server.Server, error) {
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	s.Register(mux)
	h.cur.Store(mux)
	return s, nil
}

func endpointRef(e topology.Endpoint) server.EndpointRef {
	kind := "ground"
	if e.Kind == topology.EndpointSpace {
		kind = "space"
	}
	return server.EndpointRef{Kind: kind, Index: e.Index}
}

// bookRequest is the pinned-slot wire form of a generated request: the
// arrival, start and end slots always travel with it, so an
// arrival-driven server clock follows the stream instead of sitting at
// slot 0.
func bookRequest(r workload.Request, id string) server.BookRequest {
	arrival, start, end := r.ArrivalSlot, r.StartSlot, r.EndSlot
	return server.BookRequest{
		Src:         endpointRef(r.Src),
		Dst:         endpointRef(r.Dst),
		RateMbps:    r.RateMbps,
		Valuation:   r.Valuation,
		ArrivalSlot: &arrival,
		StartSlot:   &start,
		EndSlot:     &end,
		RequestID:   id,
	}
}

// reqSample is what the client saw of one request. Times are nanoseconds
// since the lap started.
type reqSample struct {
	dueNs      int64 // open loop: when the schedule said to send
	releasedNs int64 // open loop: when the generator released it
	encStartNs int64
	sendNs     int64
	recvNs     int64
	decEndNs   int64
	fail       string // "" when a valid decision came back
	dec        decision
}

// lateMs is how late the open-loop generator released each request.
func (o *servedLapOut) lateMs() []float64 {
	late := make([]float64, len(o.samples))
	for i, s := range o.samples {
		late[i] = float64(s.releasedNs-s.dueNs) / 1e6
	}
	return late
}

// latencyNs is the decision latency: the round trip in a closed loop; in
// an open loop it runs from the due time, so waiting for a connection a
// stall kept busy counts.
func (s reqSample) latencyNs(open bool) int64 {
	if open {
		return s.recvNs - s.dueNs
	}
	return s.recvNs - s.sendNs
}

// poissonSchedule returns n due times (ns from the lap start) of a
// Poisson process with the given rate, deterministic per seed.
func poissonSchedule(n int, ratePerSec float64, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	due := make([]int64, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / ratePerSec
		due[i] = int64(t * 1e9)
	}
	return due
}

// servedLapOut is one lap through the serving layer.
type servedLapOut struct {
	samples    []reqSample
	wallNs     int64
	cpuS       float64
	shutdownNs int64
	res        *sim.Result
	stats      server.Stats
	idPrefix   string
	epochNs    int64 // lap start, ns since the run's epoch
}

// sendOne performs request i of the lap and fills its sample.
func (h *harness) sendOne(lapStart time.Time, r workload.Request, id string, s *reqSample) {
	s.encStartNs = time.Since(lapStart).Nanoseconds()
	body, err := json.Marshal(bookRequest(r, id))
	if err != nil {
		s.fail = "encode: " + err.Error()
		return
	}
	req, err := http.NewRequest(http.MethodPost, h.url, bytes.NewReader(body))
	if err != nil {
		s.fail = "request: " + err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	s.sendNs = time.Since(lapStart).Nanoseconds()
	resp, err := h.client.Do(req)
	if err != nil {
		s.recvNs = time.Since(lapStart).Nanoseconds()
		s.fail = "transport: " + err.Error()
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.recvNs = time.Since(lapStart).Nanoseconds()
	defer func() { s.decEndNs = time.Since(lapStart).Nanoseconds() }()
	if err != nil {
		s.fail = "transport: " + err.Error()
		return
	}
	if resp.StatusCode != http.StatusOK {
		s.fail = fmt.Sprintf("http %d", resp.StatusCode)
		return
	}
	var out server.BookResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		s.fail = "decode: " + err.Error()
		return
	}
	if (out.Status != server.StatusAccepted && out.Status != server.StatusRejected) || out.Reservation == nil {
		s.fail = "status " + out.Status
		return
	}
	s.dec = decisionOfReservation(out.Reservation)
}

// lap replays reqs against the attached booking server s and then shuts
// it down: conns closed-loop connections when due is nil, otherwise open
// loop on the due schedule (still at most conns requests in flight, the
// rest wait and their wait counts as latency). Shutdown is timed apart
// from the request phase.
func (h *harness) lap(s *server.Server, reqs []workload.Request, conns int, due []int64, idPrefix string, runEpoch time.Time) (*servedLapOut, error) {
	out := &servedLapOut{samples: make([]reqSample, len(reqs)), idPrefix: idPrefix}

	var wg sync.WaitGroup
	cpu0 := cpuSeconds()
	lapStart := time.Now()
	out.epochNs = lapStart.Sub(runEpoch).Nanoseconds()
	if due == nil {
		var next atomic.Int64
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(reqs) {
						return
					}
					h.sendOne(lapStart, reqs[i], fmt.Sprintf("%s-%d", idPrefix, i), &out.samples[i])
				}
			}()
		}
	} else {
		// Sized to the number of sends, so the generator never blocks on
		// busy connections and its lateness is the timer's alone.
		ready := make(chan int, len(reqs))
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range ready {
					h.sendOne(lapStart, reqs[i], fmt.Sprintf("%s-%d", idPrefix, i), &out.samples[i])
				}
			}()
		}
		for i := range reqs {
			out.samples[i].dueNs = due[i]
			waitUntil(lapStart, due[i])
			out.samples[i].releasedNs = time.Since(lapStart).Nanoseconds()
			ready <- i
		}
		close(ready)
	}
	wg.Wait()
	out.wallNs = time.Since(lapStart).Nanoseconds()
	out.cpuS = cpuSeconds() - cpu0

	out.stats = s.StatsSnapshot()
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return nil, err
	}
	out.shutdownNs = time.Since(t0).Nanoseconds()
	res, err := s.Result()
	if err != nil {
		return nil, fmt.Errorf("server result: %w", err)
	}
	out.res = res
	return out, nil
}

// spinWindow is how long before a due time the generator stops sleeping
// and polls the clock. The Go runtime rounds an idle process's timer
// wake-ups up to the next millisecond, so a sleeping generator alone runs
// about half a millisecond late, and that would be charged to the system
// under test; blocking in nanosleep(2) instead pins a P until sysmon
// notices, which is worse.
const spinWindow = 1100 * time.Microsecond

// waitUntil returns once offsetNs has elapsed since start.
func waitUntil(start time.Time, offsetNs int64) {
	target := time.Duration(offsetNs)
	if d := target - time.Since(start) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Since(start) < target {
	}
}
