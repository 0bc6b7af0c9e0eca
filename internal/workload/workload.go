// Package workload generates the online request sequence of §VI-A:
// Poisson arrivals over ten randomly chosen source–destination pairs,
// durations uniform in [1,10] minutes, rates following a truncated
// exponential on [500, 2000] Mbps calibrated to the paper's 1250 Mbps
// mean, and a constant valuation per request.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"spacebooking/internal/topology"
)

// Request is one online data-transfer request R_i of §III-B: a tuple of
// source, destination, per-slot rate demand, active window and valuation.
type Request struct {
	ID          int
	Src         topology.Endpoint
	Dst         topology.Endpoint
	ArrivalSlot int
	// StartSlot and EndSlot delimit the active window [st_i, ed_i],
	// inclusive on both ends.
	StartSlot int
	EndSlot   int
	// RateMbps is the per-slot demand δ_i(T) when RateVector is nil.
	// The paper's evaluation workload uses flat demands.
	RateMbps float64
	// RateVector optionally overrides the demand per active slot:
	// RateVector[k] is the demand at slot StartSlot+k. When set, its
	// length must equal DurationSlots() and every entry must be
	// positive.
	RateVector []float64
	Valuation  float64
	// Class labels the client class a scenario spec generated this
	// request under (empty for the paper's single-class workload). It
	// never influences admission — it exists for per-class observability
	// counters and trace attribution.
	Class string
}

// Source streams an online request sequence one arrival at a time, in
// non-decreasing arrival-slot order. Generator implements it, as do the
// scenario-spec generator and the trace replay source; sim.RunConfig
// accepts any Source in place of the built-in workload generation.
type Source interface {
	// Next returns the next request in arrival order; ok is false once
	// the sequence is exhausted.
	Next() (req Request, ok bool)
}

// SliceSource replays a fixed request sequence — the Source used by
// trace replay and by callers that materialise a workload up front.
type SliceSource struct {
	reqs []Request
	pos  int
}

// NewSliceSource wraps an already-ordered request slice. The slice is
// not copied; callers must not mutate it while the source is draining.
func NewSliceSource(reqs []Request) *SliceSource {
	return &SliceSource{reqs: reqs}
}

// Next implements Source.
func (s *SliceSource) Next() (Request, bool) {
	if s.pos >= len(s.reqs) {
		return Request{}, false
	}
	req := s.reqs[s.pos]
	s.pos++
	return req, true
}

// RateAt returns the demand δ_i(T) for an active slot. Callers must
// only ask about slots within [StartSlot, EndSlot].
func (r Request) RateAt(slot int) float64 {
	if r.RateVector == nil {
		return r.RateMbps
	}
	k := slot - r.StartSlot
	if k < 0 || k >= len(r.RateVector) {
		return 0
	}
	return r.RateVector[k]
}

// Validate reports whether the request is structurally sound for a
// horizon of the given length.
func (r Request) Validate(horizon int) error {
	if r.StartSlot < 0 || r.EndSlot < r.StartSlot || r.EndSlot >= horizon {
		return fmt.Errorf("workload: request %d window [%d,%d] outside horizon [0,%d)",
			r.ID, r.StartSlot, r.EndSlot, horizon)
	}
	if r.RateVector != nil {
		if len(r.RateVector) != r.DurationSlots() {
			return fmt.Errorf("workload: request %d rate vector length %d != duration %d",
				r.ID, len(r.RateVector), r.DurationSlots())
		}
		for k, v := range r.RateVector {
			if v <= 0 || math.IsNaN(v) {
				return fmt.Errorf("workload: request %d rate vector entry %d invalid: %v", r.ID, k, v)
			}
		}
		return nil
	}
	if r.RateMbps <= 0 || math.IsNaN(r.RateMbps) {
		return fmt.Errorf("workload: request %d has invalid rate %v", r.ID, r.RateMbps)
	}
	return nil
}

// DurationSlots returns the number of active slots.
func (r Request) DurationSlots() int { return r.EndSlot - r.StartSlot + 1 }

// Pair is a reusable source–destination endpoint pair.
type Pair struct {
	Src topology.Endpoint
	Dst topology.Endpoint
}

// Config parameterises request generation.
type Config struct {
	// ArrivalRatePerSlot is the Poisson arrival rate (requests/minute in
	// the paper, with 1-minute slots).
	ArrivalRatePerSlot float64
	// MinDurationSlots and MaxDurationSlots bound the uniform duration.
	MinDurationSlots int
	MaxDurationSlots int
	// MinRateMbps, MaxRateMbps and MeanRateMbps parameterise the
	// truncated-exponential demand distribution.
	MinRateMbps  float64
	MaxRateMbps  float64
	MeanRateMbps float64
	// Valuation is ρ_i, constant across requests as in §VI-A.
	Valuation float64
	// Horizon is the number of slots over which arrivals occur.
	Horizon int
	// Pairs are the candidate source–destination pairs; each request
	// picks one uniformly.
	Pairs []Pair
	// Seed drives the deterministic generator.
	Seed int64
	// RateProfile optionally modulates the arrival rate over time: the
	// effective rate at slot t is ArrivalRatePerSlot ×
	// RateProfile[t % len(RateProfile)]. Entries must be non-negative.
	// Nil means a flat Poisson process (the paper's workload).
	RateProfile []float64
}

// DefaultConfig returns the paper's default workload over the given
// pairs: 10 requests/minute, durations 1-10 min, rates 500-2000 Mbps with
// mean 1250, valuation 2.3e9.
func DefaultConfig(horizon int, pairs []Pair, seed int64) Config {
	return Config{
		ArrivalRatePerSlot: 10,
		MinDurationSlots:   1,
		MaxDurationSlots:   10,
		MinRateMbps:        500,
		MaxRateMbps:        2000,
		MeanRateMbps:       1250,
		Valuation:          2.3e9,
		Horizon:            horizon,
		Pairs:              pairs,
		Seed:               seed,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.ArrivalRatePerSlot <= 0:
		return fmt.Errorf("workload: arrival rate must be positive, got %v", c.ArrivalRatePerSlot)
	case c.MinDurationSlots <= 0 || c.MaxDurationSlots < c.MinDurationSlots:
		return fmt.Errorf("workload: bad duration range [%d,%d]", c.MinDurationSlots, c.MaxDurationSlots)
	case c.MinRateMbps <= 0 || c.MaxRateMbps < c.MinRateMbps:
		return fmt.Errorf("workload: bad rate range [%v,%v]", c.MinRateMbps, c.MaxRateMbps)
	case c.MeanRateMbps < c.MinRateMbps || c.MeanRateMbps > c.MaxRateMbps:
		return fmt.Errorf("workload: mean rate %v outside [%v,%v]", c.MeanRateMbps, c.MinRateMbps, c.MaxRateMbps)
	case c.Valuation <= 0:
		return fmt.Errorf("workload: valuation must be positive, got %v", c.Valuation)
	case c.Horizon <= 0:
		return fmt.Errorf("workload: horizon must be positive, got %d", c.Horizon)
	case len(c.Pairs) == 0:
		return fmt.Errorf("workload: no source-destination pairs")
	}
	for i, m := range c.RateProfile {
		if m < 0 || math.IsNaN(m) {
			return fmt.Errorf("workload: rate profile entry %d invalid: %v", i, m)
		}
	}
	return nil
}

// DiurnalProfile builds a sinusoidal rate profile with the given period
// (slots) and relative amplitude in [0,1): multiplier
// 1 + amplitude·sin(2πt/period). A 1440-slot period models a daily cycle
// at 1-minute slots.
func DiurnalProfile(periodSlots int, amplitude float64) ([]float64, error) {
	if periodSlots <= 0 {
		return nil, fmt.Errorf("workload: period must be positive, got %d", periodSlots)
	}
	if amplitude < 0 || amplitude >= 1 {
		return nil, fmt.Errorf("workload: amplitude %v outside [0,1)", amplitude)
	}
	out := make([]float64, periodSlots)
	for t := range out {
		out[t] = 1 + amplitude*math.Sin(2*math.Pi*float64(t)/float64(periodSlots))
	}
	return out, nil
}

// Generator streams the request sequence of Generate one request at a
// time: same configuration, same seed, byte-identical requests in the
// same order, without materialising the whole workload up front. The
// booking server's load generator uses it to synthesise arrivals on the
// fly; Generate itself is a Generator drained to a slice, so the two
// can never diverge.
//
// A Generator is single-goroutine: its RNG is stateful and calls to
// Next must not race. The sequence is a pure function of the Config —
// it does not depend on wall-clock time, scheduling, or GOMAXPROCS.
type Generator struct {
	cfg     Config
	rng     *rand.Rand
	sampler truncExpSampler
	slot    int // next slot to draw arrivals for
	pending int // requests still to emit in the current slot
	id      int
}

// NewGenerator validates the config and positions the stream before the
// first request.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Generator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		sampler: newTruncExpSampler(cfg.MinRateMbps, cfg.MaxRateMbps, cfg.MeanRateMbps),
	}, nil
}

// Next returns the next request in arrival order. ok is false once the
// horizon is exhausted.
func (g *Generator) Next() (req Request, ok bool) {
	for g.pending == 0 {
		if g.slot >= g.cfg.Horizon {
			return Request{}, false
		}
		rate := g.cfg.ArrivalRatePerSlot
		if len(g.cfg.RateProfile) > 0 {
			rate *= g.cfg.RateProfile[g.slot%len(g.cfg.RateProfile)]
		}
		if rate > 0 {
			g.pending = poisson(g.rng, rate)
		}
		g.slot++
	}
	g.pending--
	slot := g.slot - 1 // arrivals belong to the slot just drawn
	pair := g.cfg.Pairs[g.rng.Intn(len(g.cfg.Pairs))]
	dur := g.cfg.MinDurationSlots + g.rng.Intn(g.cfg.MaxDurationSlots-g.cfg.MinDurationSlots+1)
	end := slot + dur - 1
	if end >= g.cfg.Horizon {
		end = g.cfg.Horizon - 1
	}
	req = Request{
		ID:          g.id,
		Src:         pair.Src,
		Dst:         pair.Dst,
		ArrivalSlot: slot,
		StartSlot:   slot,
		EndSlot:     end,
		RateMbps:    g.sampler.sample(g.rng),
		Valuation:   g.cfg.Valuation,
	}
	g.id++
	return req, true
}

// Generate produces the full request sequence ordered by arrival slot
// (ties broken by generation order, matching the paper's assumption that
// requests are processed in arrival order). It is a drained Generator.
func Generate(cfg Config) ([]Request, error) {
	gen, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	expected := int(cfg.ArrivalRatePerSlot*float64(cfg.Horizon)) + 1
	requests := make([]Request, 0, expected)
	for {
		req, ok := gen.Next()
		if !ok {
			return requests, nil
		}
		requests = append(requests, req)
	}
}

// poisson samples a Poisson variate via Knuth's method; adequate for the
// λ ≤ 25 used in the evaluation.
func poisson(rng *rand.Rand, lambda float64) int {
	limit := math.Exp(-lambda)
	p := 1.0
	k := 0
	for {
		p *= rng.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// truncExpSampler samples from an exponential distribution shifted to
// min and truncated at max, with its rate calibrated so the realised
// mean matches the target. The paper asks for mean 1250 on [500, 2000] —
// the exact midpoint, which a truncated exponential only reaches in the
// uniform (rate→0) limit; the calibration therefore degrades gracefully
// to near-uniform in that case.
type truncExpSampler struct {
	min, max float64
	rate     float64 // 0 means uniform fallback
}

// truncExpMean returns the mean of min + Exp(rate) truncated to
// [min, max].
func truncExpMean(min, max, rate float64) float64 {
	width := max - min
	x := rate * width
	if x < 1e-4 {
		// Series expansion: the closed form subtracts two ~1/x terms and
		// loses all precision for small x.
		return min + width*(0.5-x/12)
	}
	// E = 1/rate - width * e^{-x} / (1 - e^{-x}), shifted by min.
	return min + 1/rate + width*math.Exp(-x)/math.Expm1(-x)
}

func newTruncExpSampler(min, max, targetMean float64) truncExpSampler {
	mid := min + (max-min)/2
	if targetMean >= mid {
		// Midpoint or above is only reachable in the uniform limit.
		return truncExpSampler{min: min, max: max, rate: 0}
	}
	// Bisect the rate: mean decreases as rate grows.
	lo, hi := 1e-9, 1.0
	for truncExpMean(min, max, hi) > targetMean {
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		midRate := (lo + hi) / 2
		if truncExpMean(min, max, midRate) > targetMean {
			lo = midRate
		} else {
			hi = midRate
		}
	}
	return truncExpSampler{min: min, max: max, rate: (lo + hi) / 2}
}

func (s truncExpSampler) sample(rng *rand.Rand) float64 {
	if s.rate == 0 {
		return s.min + rng.Float64()*(s.max-s.min)
	}
	// Inverse-CDF sampling of the truncated exponential.
	width := s.max - s.min
	u := rng.Float64()
	return s.min - math.Log(1-u*(1-math.Exp(-s.rate*width)))/s.rate
}

// RateSampler draws per-request demands from the paper's calibrated
// truncated-exponential distribution. It is the exported form of the
// sampler Generator uses internally, so the scenario engine's per-class
// demand mixes share one calibration (and one set of edge cases: a mean
// at or above the midpoint degrades gracefully to uniform).
type RateSampler struct {
	inner truncExpSampler
}

// NewRateSampler calibrates a sampler on [min, max] with the target
// mean. The bounds must satisfy 0 < min <= mean <= max.
func NewRateSampler(min, max, mean float64) (RateSampler, error) {
	switch {
	case min <= 0 || max < min:
		return RateSampler{}, fmt.Errorf("workload: bad rate range [%v,%v]", min, max)
	case mean < min || mean > max:
		return RateSampler{}, fmt.Errorf("workload: mean rate %v outside [%v,%v]", mean, min, max)
	}
	return RateSampler{inner: newTruncExpSampler(min, max, mean)}, nil
}

// Sample draws one demand using the caller's RNG.
func (s RateSampler) Sample(rng *rand.Rand) float64 { return s.inner.sample(rng) }
