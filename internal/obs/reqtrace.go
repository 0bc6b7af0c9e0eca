package obs

// TraceSpan is one named interval of a request's lifetime, in
// nanoseconds relative to the wall time the request entered the system.
type TraceSpan struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// DurNs returns the span's duration, or 0 if it ends before it starts.
func (s TraceSpan) DurNs() int64 {
	if s.EndNs < s.StartNs {
		return 0
	}
	return s.EndNs - s.StartNs
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
