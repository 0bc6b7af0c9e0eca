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

	"spacebooking/internal/pricing"
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

// maxSlotRate is the largest per-slot arrival rate Generate can draw:
// Knuth's Poisson sampler stops when a running product of uniforms
// falls to exp(-λ), and for λ above 1022·ln 2 ≈ 708.4 that threshold is
// no longer a normal float64, so every slot would draw about 745
// arrivals whatever λ is.
const maxSlotRate = 1022 * math.Ln2

// maxPrealloc caps Generate's up-front capacity, so no accepted config
// can ask for an impossible slice before the first draw.
const maxPrealloc = 1 << 16

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case !(c.ArrivalRatePerSlot > 0 && c.ArrivalRatePerSlot <= math.MaxFloat64):
		return fmt.Errorf("workload: arrival rate must be positive and finite, got %v", c.ArrivalRatePerSlot)
	case c.MinDurationSlots <= 0 || c.MaxDurationSlots < c.MinDurationSlots:
		return fmt.Errorf("workload: bad duration range [%d,%d]", c.MinDurationSlots, c.MaxDurationSlots)
	case c.MinRateMbps <= 0 || c.MaxRateMbps < c.MinRateMbps:
		return fmt.Errorf("workload: bad rate range [%v,%v]", c.MinRateMbps, c.MaxRateMbps)
	case c.MeanRateMbps < c.MinRateMbps || c.MeanRateMbps > c.MaxRateMbps:
		return fmt.Errorf("workload: mean rate %v outside [%v,%v]", c.MeanRateMbps, c.MinRateMbps, c.MaxRateMbps)
	case !(c.Valuation > 0 && c.Valuation <= math.MaxFloat64):
		return fmt.Errorf("workload: valuation must be positive and finite, got %v", c.Valuation)
	case c.Horizon <= 0:
		return fmt.Errorf("workload: horizon must be positive, got %d", c.Horizon)
	case len(c.Pairs) == 0:
		return fmt.Errorf("workload: no source-destination pairs")
	case c.ArrivalRatePerSlot > maxSlotRate:
		return fmt.Errorf("workload: arrival rate %v per slot exceeds %.1f, the largest the Poisson sampler can draw", c.ArrivalRatePerSlot, maxSlotRate)
	}
	return nil
}

// Generate produces the full request sequence ordered by arrival slot
// (ties broken by generation order, matching the paper's assumption that
// requests are processed in arrival order). The sequence is a pure
// function of the Config: one RNG seeded from cfg.Seed draws, per slot,
// the arrival count and then each arrival's pair, duration and demand,
// so it depends on neither wall-clock time nor GOMAXPROCS.
func Generate(cfg Config) ([]Request, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sampler, err := NewRateSampler(cfg.MinRateMbps, cfg.MaxRateMbps, cfg.MeanRateMbps)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	requests := make([]Request, 0, int(min(cfg.ArrivalRatePerSlot*float64(cfg.Horizon), maxPrealloc))+1)
	for slot := 0; slot < cfg.Horizon; slot++ {
		for n := poisson(rng, cfg.ArrivalRatePerSlot); n > 0; n-- {
			pair := cfg.Pairs[rng.Intn(len(cfg.Pairs))]
			dur := cfg.MinDurationSlots + rng.Intn(cfg.MaxDurationSlots-cfg.MinDurationSlots+1)
			requests = append(requests, Request{
				ID:          len(requests),
				Src:         pair.Src,
				Dst:         pair.Dst,
				ArrivalSlot: slot,
				StartSlot:   slot,
				EndSlot:     min(slot+dur-1, cfg.Horizon-1),
				RateMbps:    sampler.Sample(rng),
				Valuation:   cfg.Valuation,
			})
		}
	}
	return requests, nil
}

// poisson samples a Poisson variate via Knuth's method: sound for
// λ ≤ maxSlotRate, which Validate enforces, and quick for the λ ≤ 25
// used in the evaluation.
func poisson(rng *rand.Rand, lambda float64) int {
	limit := pricing.Exp(-lambda)
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

// RateSampler draws per-request demands from an exponential distribution
// shifted to min and truncated at max, with its rate calibrated so the
// realised mean matches the target. The paper asks for mean 1250 on
// [500, 2000] — the exact midpoint, which a truncated exponential only
// reaches in the uniform (rate→0) limit; the calibration therefore
// degrades gracefully to near-uniform in that case. Generate and the
// scenario engine's per-class demand mixes share it, so they share one
// calibration and one set of edge cases.
type RateSampler struct {
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
	return min + 1/rate + width*pricing.Exp(-x)/math.Expm1(-x)
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
	mid := min + (max-min)/2
	if mean >= mid {
		// Midpoint or above is only reachable in the uniform limit.
		return RateSampler{min: min, max: max, rate: 0}, nil
	}
	// Bisect the rate: the truncated mean decreases as the rate grows.
	lo, hi := 1e-9, 1.0
	for truncExpMean(min, max, hi) > mean {
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		midRate := (lo + hi) / 2
		if truncExpMean(min, max, midRate) > mean {
			lo = midRate
		} else {
			hi = midRate
		}
	}
	return RateSampler{min: min, max: max, rate: (lo + hi) / 2}, nil
}

// Sample draws one demand using the caller's RNG.
func (s RateSampler) Sample(rng *rand.Rand) float64 {
	if s.rate == 0 {
		return s.min + rng.Float64()*(s.max-s.min)
	}
	// Inverse-CDF sampling of the truncated exponential.
	width := s.max - s.min
	u := rng.Float64()
	return s.min - math.Log(1-u*(1-pricing.Exp(-s.rate*width)))/s.rate
}
