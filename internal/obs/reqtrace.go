package obs

import (
	"sync"
	"time"
)

// MaxTraceSpans bounds the spans one request can record. The serving
// layer records seven named phases; the headroom absorbs future phases
// without reallocating — a full recorder drops further Begin calls
// rather than growing.
const MaxTraceSpans = 12

// TraceSpan is one named interval of a request's lifetime, in
// nanoseconds relative to the recorder's epoch (the wall time the
// request entered the system). An open span has EndNs -1.
type TraceSpan struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// DurNs returns the span's duration, or 0 while it is still open.
func (s TraceSpan) DurNs() int64 {
	if s.EndNs < s.StartNs {
		return 0
	}
	return s.EndNs - s.StartNs
}

// TraceRec is an allocation-free per-request span recorder: a fixed
// array of spans plus an epoch, pooled via TracePool so the steady
// state allocates nothing per request. It is single-writer by design:
// the request's own handler records every span, its admission included.
// All methods are nil-safe so call sites need no "tracing enabled?"
// branches of their own.
type TraceRec struct {
	epoch time.Time
	n     int
	spans [MaxTraceSpans]TraceSpan
}

// Reset re-arms the recorder for a new request starting at now.
func (r *TraceRec) Reset(now time.Time) {
	if r == nil {
		return
	}
	r.epoch = now
	r.n = 0
}

// Epoch returns the request's start wall time.
func (r *TraceRec) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// SinceNs returns now relative to the epoch in nanoseconds, clamped to
// be non-negative (fake test clocks may not advance).
func (r *TraceRec) SinceNs(now time.Time) int64 {
	if r == nil {
		return 0
	}
	ns := now.Sub(r.epoch).Nanoseconds()
	if ns < 0 {
		return 0
	}
	return ns
}

// Begin opens a named span at now and returns its index for End. A nil
// or full recorder returns -1, which End ignores.
func (r *TraceRec) Begin(name string, now time.Time) int {
	if r == nil || r.n >= MaxTraceSpans {
		return -1
	}
	i := r.n
	r.n++
	r.spans[i] = TraceSpan{Name: name, StartNs: r.SinceNs(now), EndNs: -1}
	return i
}

// End closes the span opened by Begin. Ignores idx -1.
func (r *TraceRec) End(idx int, now time.Time) {
	if r == nil || idx < 0 || idx >= r.n {
		return
	}
	r.spans[idx].EndNs = r.SinceNs(now)
}

// Add records an already-measured interval (used for sub-phase
// durations reconstructed from instrument counter deltas). Dropped
// when the recorder is nil or full.
func (r *TraceRec) Add(name string, startNs, durNs int64) {
	if r == nil || r.n >= MaxTraceSpans {
		return
	}
	if durNs < 0 {
		durNs = 0
	}
	r.spans[r.n] = TraceSpan{Name: name, StartNs: startNs, EndNs: startNs + durNs}
	r.n++
}

// CopySpans returns an owned copy of the recorded spans, for attaching
// to an audit record that outlives the pooled recorder.
func (r *TraceRec) CopySpans() []TraceSpan {
	if r == nil || r.n == 0 {
		return nil
	}
	out := make([]TraceSpan, r.n)
	copy(out, r.spans[:r.n])
	return out
}

// TracePool recycles TraceRecs so tracing costs no steady-state
// allocation per request.
type TracePool struct {
	pool sync.Pool
}

// NewTracePool builds an empty pool.
func NewTracePool() *TracePool {
	tp := &TracePool{}
	tp.pool.New = func() any { return new(TraceRec) }
	return tp
}

// Get returns a recorder reset to the given epoch.
func (tp *TracePool) Get(now time.Time) *TraceRec {
	if tp == nil {
		return nil
	}
	r := tp.pool.Get().(*TraceRec)
	r.Reset(now)
	return r
}

// Put returns a recorder to the pool. Nil recorders are ignored so
// callers can Put unconditionally.
func (tp *TracePool) Put(r *TraceRec) {
	if tp == nil || r == nil {
		return
	}
	tp.pool.Put(r)
}

// SamplePolicy decides which requests get their phase timeline attached
// to the audit stream: a deterministic head-sampling rate by request
// id, plus a slow-request threshold. Shed, rejected and errored
// requests are always sampled by the caller regardless of the policy —
// the policy only thins the uninteresting accepted majority.
type SamplePolicy struct {
	// Rate is the head-sampling probability in [0, 1]. Sampling is a
	// deterministic hash of the request id, so a replayed id stream
	// samples the same requests.
	Rate float64
	// SlowNs forces sampling for any request whose total latency
	// reaches the threshold. 0 disables slow sampling.
	SlowNs int64
}

// SampleHead reports whether the id falls inside the head-sampled
// fraction.
func (p SamplePolicy) SampleHead(id uint64) bool {
	if p.Rate >= 1 {
		return true
	}
	if p.Rate <= 0 {
		return false
	}
	// Threshold compare in hash space: Rate scaled to the full uint64
	// range. splitmix64 decorrelates sequential ids.
	threshold := uint64(p.Rate * float64(1<<63) * 2)
	return splitmix64(id) < threshold
}

// Slow reports whether a total latency trips the always-sample
// threshold.
func (p SamplePolicy) Slow(totalNs int64) bool {
	return p.SlowNs > 0 && totalNs >= p.SlowNs
}

// splitmix64 is the finalizer of the SplitMix64 PRNG: a cheap,
// well-distributed 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
