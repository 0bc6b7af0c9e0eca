package scenario

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"spacebooking/internal/geo"
	"spacebooking/internal/grid"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// Binding grounds a spec in an environment: the pairs requests travel
// between, the sites those pairs' endpoints live on (needed for
// solar-phased diurnal cycles and regional outages), the horizon, and
// the default valuation for classes that do not set their own.
type Binding struct {
	// Horizon is the number of slots arrivals may occur in.
	Horizon int
	// Pairs are the candidate source-destination pairs, indexed by the
	// spec's per-class pair lists.
	Pairs []workload.Pair
	// Sites maps ground endpoint indices to grid sites. Optional; specs
	// using solar-phased diurnals or regional outages require it.
	Sites []grid.Site
	// DefaultValuation backs classes with Mix.Valuation == 0.
	DefaultValuation float64
}

// arrival is one generated request with its continuous arrival time —
// the extra precision the Erlang-B loss simulator needs (slots quantise
// it away).
type arrival struct {
	Req workload.Request
	// Time is the arrival instant in continuous slot units
	// (Req.ArrivalSlot == floor(Time)).
	Time float64
	// HoldSlots is the sampled holding time before horizon truncation —
	// what a pure loss system would occupy a server for.
	HoldSlots float64
}

// classStream generates one class's arrivals by time-rescaling
// unit-mean renewal work through the piecewise-constant per-slot rate
// λ(slot) = RatePerSlot × mean(pair weights) × flash(slot), where a
// pair's weight is its diurnal multiplier times any outage/EO-burst
// event factors. For Poisson interarrivals this is exactly an
// inhomogeneous Poisson process.
type classStream struct {
	cls   Class
	rng   *rand.Rand
	inter interarrival
	rates workload.RateSampler
	val   float64

	pairs   []int     // indices into the binding's pairs
	phase   []float64 // per-pair diurnal phase (radians)
	eoPair  []bool    // per-pair: source is space-borne
	outaged [][]bool  // per-event, per-pair: source inside the region
	events  []Event   // events that apply to this class
	binding *Binding
	horizon int

	t        float64 // current continuous time (slots)
	curSlot  int     // slot the cached weights are for (-1: none)
	weights  []float64
	weightsW float64 // sum of cached weights
	lambda   float64 // cached per-slot rate
}

// arrivals validates the spec against the binding and returns its whole
// arrival sequence, with the horizon the arrivals fall in: the stable
// sort by time of every class's stream, drained in class order, with
// request IDs numbered in that order.
//
// A class's times never decrease, so the stable sort is the merge that
// always takes the earliest head, ties going to the lower class index.
// Each class stream owns its RNG (seeded from the spec seed and the
// class index) and samples all of an arrival's attributes when it
// generates it, so neither the draining order nor the sort touches any
// RNG's state. The sequence is a pure function of (spec, binding).
func arrivals(spec Spec, b Binding) ([]arrival, int, error) {
	if err := spec.Validate(); err != nil {
		return nil, 0, err
	}
	if b.Horizon <= 0 {
		return nil, 0, fmt.Errorf("scenario: binding horizon must be positive, got %d", b.Horizon)
	}
	if len(b.Pairs) == 0 {
		return nil, 0, fmt.Errorf("scenario: binding has no pairs")
	}
	horizon := b.Horizon
	if spec.Horizon > 0 {
		if spec.Horizon > b.Horizon {
			return nil, 0, fmt.Errorf("scenario: spec horizon %d exceeds binding horizon %d", spec.Horizon, b.Horizon)
		}
		horizon = spec.Horizon
	}
	needSites := false
	for _, ev := range spec.Events {
		if ev.Kind == EventRegionalOutage {
			needSites = true
		}
	}
	for _, c := range spec.Classes {
		if c.Diurnal != nil && c.Diurnal.SolarPhase {
			needSites = true
		}
	}
	if needSites && len(b.Sites) == 0 {
		return nil, 0, fmt.Errorf("scenario: spec %q uses solar-phased diurnals or regional outages but the binding has no sites", spec.Name)
	}
	var out []arrival
	for i, c := range spec.Classes {
		cs, err := newClassStream(i, c, spec, &b, horizon)
		if err != nil {
			return nil, 0, err
		}
		for a, ok := cs.next(); ok; a, ok = cs.next() {
			out = append(out, a)
		}
	}
	slices.SortStableFunc(out, func(x, y arrival) int { return cmp.Compare(x.Time, y.Time) })
	for i := range out {
		out[i].Req.ID = i
	}
	return out, horizon, nil
}

func newClassStream(idx int, c Class, spec Spec, b *Binding, horizon int) (*classStream, error) {
	inter, err := newInterarrival(c.Arrival)
	if err != nil {
		return nil, err
	}
	rates, err := workload.NewRateSampler(c.Mix.MinRateMbps, c.Mix.MaxRateMbps, c.Mix.MeanRateMbps)
	if err != nil {
		return nil, fmt.Errorf("scenario: class %q: %w", c.Name, err)
	}
	val := c.Mix.Valuation
	if val == 0 {
		val = b.DefaultValuation
	}
	if val <= 0 {
		return nil, fmt.Errorf("scenario: class %q has no valuation and the binding has no default", c.Name)
	}
	pairs := c.Pairs
	if len(pairs) == 0 {
		pairs = make([]int, len(b.Pairs))
		for i := range pairs {
			pairs[i] = i
		}
	}
	for _, p := range pairs {
		if p >= len(b.Pairs) {
			return nil, fmt.Errorf("scenario: class %q pair index %d out of range (binding has %d pairs)",
				c.Name, p, len(b.Pairs))
		}
	}
	cs := &classStream{
		cls: c, inter: inter, rates: rates, val: val,
		pairs: pairs, binding: b, horizon: horizon, curSlot: -1,
		// Distinct large seed offsets per class keep streams independent
		// while remaining a pure function of (seed, class index).
		rng: rand.New(rand.NewSource(spec.Seed + int64(idx+1)*0x9E3779B9)),
	}
	cs.phase = make([]float64, len(pairs))
	cs.eoPair = make([]bool, len(pairs))
	for i, p := range pairs {
		pair := b.Pairs[p]
		cs.eoPair[i] = pair.Src.Kind == topology.EndpointSpace
		if c.Diurnal != nil && c.Diurnal.SolarPhase && !cs.eoPair[i] {
			if pair.Src.Index >= len(b.Sites) {
				return nil, fmt.Errorf("scenario: class %q pair %d source site %d outside binding sites (%d)",
					c.Name, p, pair.Src.Index, len(b.Sites))
			}
			// Slot 0 is 00:00 UTC; local solar time leads UTC by
			// lon/360 of a day, and intensity peaks at local noon:
			// 1 + A·sin(2π·(slot/period + lon/360) − π/2).
			cs.phase[i] = 2*math.Pi*b.Sites[pair.Src.Index].LonDeg/360 - math.Pi/2
		}
	}
	for _, ev := range spec.Events {
		if !ev.appliesTo(c.Name) {
			continue
		}
		cs.events = append(cs.events, ev)
		member := make([]bool, len(pairs))
		if ev.Kind == EventRegionalOutage {
			center := geo.LLA{LatDeg: ev.CenterLatDeg, LonDeg: ev.CenterLonDeg}
			for i, p := range pairs {
				pair := b.Pairs[p]
				if pair.Src.Kind != topology.EndpointGround || pair.Src.Index >= len(b.Sites) {
					continue
				}
				site := b.Sites[pair.Src.Index]
				member[i] = geo.GreatCircleKm(site.LLA(), center) <= ev.RadiusKm
			}
		}
		cs.outaged = append(cs.outaged, member)
	}
	cs.weights = make([]float64, len(pairs))
	return cs, nil
}

// refreshSlot recomputes the per-pair weights and the effective rate
// for a slot. Weights and rate are piecewise constant per slot.
func (cs *classStream) refreshSlot(slot int) {
	if slot == cs.curSlot {
		return
	}
	cs.curSlot = slot
	total := 0.0
	for i := range cs.weights {
		w := 1.0
		if d := cs.cls.Diurnal; d != nil {
			w *= 1 + d.Amplitude*math.Sin(2*math.Pi*float64(slot)/float64(d.PeriodSlots)+cs.phase[i])
		}
		for e, ev := range cs.events {
			if !ev.active(slot) {
				continue
			}
			switch ev.Kind {
			case EventRegionalOutage:
				if cs.outaged[e][i] {
					w *= ev.Factor
				}
			case EventEOBurst:
				if cs.eoPair[i] {
					w *= ev.Factor
				}
			}
		}
		cs.weights[i] = w
		total += w
	}
	cs.weightsW = total
	lam := cs.cls.Arrival.RatePerSlot * total / float64(len(cs.weights))
	for _, ev := range cs.events {
		if ev.Kind == EventFlashCrowd && ev.active(slot) {
			lam *= ev.Factor
		}
	}
	cs.lambda = lam
}

// next returns the stream's next arrival, or false once it reaches the
// horizon. One unit-mean work sample is integrated through λ(slot).
func (cs *classStream) next() (arrival, bool) {
	work := cs.inter.sample(cs.rng)
	for {
		slot := int(cs.t)
		if slot >= cs.horizon {
			return arrival{}, false
		}
		cs.refreshSlot(slot)
		if cs.lambda <= 0 {
			cs.t = float64(slot + 1)
			continue
		}
		capacity := (float64(slot+1) - cs.t) * cs.lambda
		if work > capacity {
			work -= capacity
			cs.t = float64(slot + 1)
			continue
		}
		cs.t += work / cs.lambda
		// Guard against landing exactly on the boundary: the arrival
		// belongs to the slot whose capacity absorbed the work.
		if cs.t >= float64(slot+1) {
			cs.t = math.Nextafter(float64(slot+1), 0)
		}
		return cs.emit(slot), true
	}
}

// emit samples the arrival's attributes (pair by weight, duration,
// demand) with the class's own RNG.
func (cs *classStream) emit(slot int) arrival {
	// Fall back to the last pair if accumulated rounding keeps u above
	// every partial sum.
	pick := len(cs.weights) - 1
	u := cs.rng.Float64() * cs.weightsW
	acc := 0.0
	for i, w := range cs.weights {
		acc += w
		if u < acc {
			pick = i
			break
		}
	}
	pair := cs.binding.Pairs[cs.pairs[pick]]
	dur := cs.cls.Mix.MinDurationSlots +
		cs.rng.Intn(cs.cls.Mix.MaxDurationSlots-cs.cls.Mix.MinDurationSlots+1)
	end := slot + dur - 1
	if end >= cs.horizon {
		end = cs.horizon - 1
	}
	return arrival{
		Req: workload.Request{
			Src:         pair.Src,
			Dst:         pair.Dst,
			ArrivalSlot: slot,
			StartSlot:   slot,
			EndSlot:     end,
			RateMbps:    cs.rates.Sample(cs.rng),
			Valuation:   cs.val,
			Class:       cs.cls.Name,
		},
		Time:      cs.t,
		HoldSlots: float64(dur),
	}
}

// Generate returns a bound spec's whole request sequence: the stable
// time sort of its class streams (see arrivals). The slice is non-nil even when the spec yields no arrival,
// since a nil sim.RunConfig.Requests means the flat workload.
func Generate(spec Spec, b Binding) ([]workload.Request, error) {
	as, _, err := arrivals(spec, b)
	if err != nil {
		return nil, err
	}
	out := make([]workload.Request, len(as))
	for i, a := range as {
		out[i] = a.Req
	}
	return out, nil
}
