package obs

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"
)

// DebugServer is the opt-in live-inspection endpoint behind the cmds'
// -debug-addr flag: net/http/pprof for CPU/heap/goroutine profiling of
// long full-scale runs, plus /metrics.json serving the registry
// snapshot. It binds eagerly (so a bad address fails fast) and serves
// in the background until Close. SetRegistry repoints the metrics
// endpoints at a different registry mid-flight — parallel experiment
// drivers use it to expose the most recently completed run.
type DebugServer struct {
	srv    *http.Server
	addr   string
	holder *regHolder
}

// regHolder is the swappable registry behind a live mux.
type regHolder struct {
	p atomic.Pointer[Registry]
}

func (h *regHolder) get() *Registry { return h.p.Load() }

// NewDebugMux builds the handler tree: /debug/pprof/*, /metrics.json
// (the registry snapshot, whole) and /metrics (the same snapshot as
// Prometheus text exposition). Exposed separately so embedding
// applications can mount it on their own server.
func NewDebugMux(reg *Registry) *http.ServeMux {
	h := &regHolder{}
	h.p.Store(reg)
	return newDebugMux(h)
}

func newDebugMux(holder *regHolder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	withReg := func(serve func(w http.ResponseWriter, reg *Registry)) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			reg := holder.get()
			if reg == nil {
				http.Error(w, "no registry attached yet", http.StatusServiceUnavailable)
				return
			}
			serve(w, reg)
		}
	}
	mux.HandleFunc("/metrics.json", withReg(func(w http.ResponseWriter, reg *Registry) {
		serveBuffered(w, "application/json", reg.WriteJSON)
	}))
	mux.HandleFunc("/metrics", withReg(func(w http.ResponseWriter, reg *Registry) {
		serveBuffered(w, PromContentType, reg.WriteProm)
	}))
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		serveBuffered(w, "text/plain; charset=utf-8", func(out io.Writer) error {
			_, err := io.WriteString(out, debugIndex)
			return err
		})
	})
	return mux
}

// debugIndex is the plain-text landing page of the debug mux.
const debugIndex = `spacebooking debug server
  /metrics        Prometheus text exposition
  /metrics.json   registry snapshot: counters, gauges, histograms, phases,
                  per-slot timeseries, top-K trackers
  /debug/pprof/   live profiles
`

// serveBuffered renders the whole body before touching the response, so
// a render failure becomes a clean 500 instead of an error message
// appended to a half-written 200 body (headers are committed by the
// first Write and cannot be revoked).
func serveBuffered(w http.ResponseWriter, contentType string, render func(io.Writer) error) {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	if _, err := w.Write(buf.Bytes()); err != nil {
		// The client disconnected mid-response; there is no channel left
		// to report the failure on.
		return
	}
}

// StartDebugServer listens on addr (e.g. "localhost:6060") and serves
// the debug mux in the background. The returned server reports the
// bound address (useful with ":0") and is shut down with Close.
func StartDebugServer(addr string, reg *Registry) (*DebugServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server: %w", err)
	}
	holder := &regHolder{}
	holder.p.Store(reg)
	srv := &http.Server{
		Handler:           newDebugMux(holder),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go srv.Serve(lis) //nolint:errcheck // always returns ErrServerClosed after Close
	return &DebugServer{srv: srv, addr: lis.Addr().String(), holder: holder}, nil
}

// Addr returns the bound listen address.
func (d *DebugServer) Addr() string { return d.addr }

// SetRegistry atomically repoints the metrics endpoints at reg.
// In-flight requests finish against the registry they started with.
func (d *DebugServer) SetRegistry(reg *Registry) { d.holder.p.Store(reg) }

// Close stops the server.
func (d *DebugServer) Close() error { return d.srv.Close() }
