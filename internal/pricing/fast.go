package pricing

import (
	"math"

	"spacebooking/internal/obs"
)

// lutSize is the resolution of the price lookup table. With 8192 bins
// over λ ∈ [0,1] and linear interpolation, the relative error against
// math.Pow is below 1e-8 for the μ values used in practice — far finer
// than any behavioural difference in the simulator.
const lutSize = 8192

// lut tabulates f(λ) = μ^λ − 1 on a uniform grid over [0,1].
type lut struct {
	vals [lutSize + 1]float64
}

// newLUT builds the table with Exp, not math.Exp, whose amd64 lane (and
// so the table's bits, and every decision priced from it) depends on
// whether the CPU has FMA.
func newLUT(mu float64) lut {
	var l lut
	logMu := math.Log(mu)
	for i := 0; i <= lutSize; i++ {
		l.vals[i] = Exp(float64(logMu*float64(i))/lutSize) - 1
	}
	return l
}

// at evaluates the table with clamping and linear interpolation.
func (l *lut) at(lambda float64) float64 {
	if lambda <= 0 {
		return 0
	}
	if lambda >= 1 {
		return l.vals[lutSize]
	}
	pos := lambda * lutSize
	idx := int(pos)
	frac := pos - float64(idx)
	return l.vals[idx]*(1-frac) + l.vals[idx+1]*frac
}

// FastPricer evaluates the exponential unit prices of Eqs. (10)–(11)
// via precomputed tables. The deficit-pricing inner loop of CEAR calls
// these once per (satellite, persisted slot); with math.Pow that single
// call dominates whole-simulation CPU time, so the table is what makes
// paper-scale runs tractable on one core.
type FastPricer struct {
	congestion lut
	energy     lut
	// lookups, when instrumented, counts table evaluations — the
	// innermost operation of admission pricing. Nil (a single branch)
	// unless a registry is attached.
	lookups *obs.Counter
}

// Instrument attaches a lookup counter (nil detaches). Not safe to call
// concurrently with pricing; wire it at algorithm construction.
func (f *FastPricer) Instrument(c *obs.Counter) { f.lookups = c }

// Fast precomputes a FastPricer for these parameters. Equal factors, as
// at the paper's F1 = F2, share one table's values.
func (p Params) Fast() *FastPricer {
	f := &FastPricer{congestion: newLUT(p.Mu1)}
	f.energy = f.congestion
	if p.Mu2 != p.Mu1 {
		f.energy = newLUT(p.Mu2)
	}
	return f
}

// CongestionUnitCost returns σ_e(T)/c_e(T) = μ1^λ − 1, the congestion
// price per unit of reserved bandwidth, as used in the first term of the
// plan cost (Eq. (12)). λ is clamped to [0,1].
func (f *FastPricer) CongestionUnitCost(lambda float64) float64 {
	f.lookups.Inc()
	return f.congestion.at(lambda)
}

// EnergyUnitCost returns σ_s(T)/ϖ_s = μ2^λ − 1, the energy price per
// joule of battery deficit, as used in the second term of Eq. (12). λ is
// clamped to [0,1].
func (f *FastPricer) EnergyUnitCost(lambda float64) float64 {
	f.lookups.Inc()
	return f.energy.at(lambda)
}
