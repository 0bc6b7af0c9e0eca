// Package pricing implements the exponential resource-pricing scheme at
// the heart of CEAR (§IV-B of the paper): congestion and energy costs
// that grow exponentially with utilization (Eqs. (10)–(11)), the
// derivation of the base price factors μ1 = 2(n𝕋F1 + 1) and
// μ2 = 2(n𝕋F2 + 1) from the conservativeness parameters, and the
// competitive ratio 2·log2(μ1·μ2) + 1 of Theorem 1.
package pricing

import (
	"fmt"
	"math"
)

// Params holds the pricing-scheme parameters.
type Params struct {
	// Mu1 and Mu2 are the base price factors for bandwidth and energy.
	Mu1 float64
	Mu2 float64
	// F1 and F2 are the conservativeness parameters of §V.
	F1 float64
	F2 float64
	// MaxHops is n, the maximum number of hops in any path.
	MaxHops int
	// MaxDurationSlots is 𝕋, the maximum request duration in slots.
	MaxDurationSlots int
}

// Derive computes the base price factors from the conservativeness
// parameters per §V: μ = 2(n𝕋F + 1).
func Derive(f1, f2 float64, maxHops, maxDurationSlots int) (Params, error) {
	switch {
	case f1 <= 0 || f2 <= 0:
		return Params{}, fmt.Errorf("pricing: conservativeness parameters must be positive (F1=%v, F2=%v)", f1, f2)
	case maxHops <= 0:
		return Params{}, fmt.Errorf("pricing: max hops must be positive, got %d", maxHops)
	case maxDurationSlots <= 0:
		return Params{}, fmt.Errorf("pricing: max duration must be positive, got %d", maxDurationSlots)
	}
	nt := float64(maxHops) * float64(maxDurationSlots)
	return Params{
		Mu1:              2 * (nt*f1 + 1),
		Mu2:              2 * (nt*f2 + 1),
		F1:               f1,
		F2:               f2,
		MaxHops:          maxHops,
		MaxDurationSlots: maxDurationSlots,
	}, nil
}

// Validate reports whether the parameters are usable for pricing.
func (p Params) Validate() error {
	if p.Mu1 <= 1 || p.Mu2 <= 1 {
		return fmt.Errorf("pricing: base factors must exceed 1 (μ1=%v, μ2=%v)", p.Mu1, p.Mu2)
	}
	return nil
}

// CongestionUnitCost returns σ_e(T)/c_e(T) = μ1^λ − 1, the congestion
// price per unit of reserved bandwidth, as used in the first term of the
// plan cost (Eq. (12)).
func (p Params) CongestionUnitCost(lambda float64) float64 {
	return math.Pow(p.Mu1, clamp01(lambda)) - 1
}

// EnergyUnitCost returns σ_s(T)/ϖ_s = μ2^λ − 1, the energy price per
// joule of battery deficit, as used in the second term of Eq. (12).
func (p Params) EnergyUnitCost(lambda float64) float64 {
	return math.Pow(p.Mu2, clamp01(lambda)) - 1
}

// CompetitiveRatio returns the bound of Theorem 1: 2·log2(μ1·μ2) + 1.
func (p Params) CompetitiveRatio() float64 {
	return 2*math.Log2(p.Mu1*p.Mu2) + 1
}

// MaxValuation returns the upper valuation bound of Assumption 1,
// n𝕋F1 + n𝕋F2, above which the worst-case analysis no longer applies.
func (p Params) MaxValuation() float64 {
	nt := float64(p.MaxHops) * float64(p.MaxDurationSlots)
	return nt*p.F1 + nt*p.F2
}

// DemandBound returns Assumption 2's per-slot demand cap for a link of
// the given capacity: c_min / log2(μ1).
func (p Params) DemandBound(minLinkCapacity float64) float64 {
	return minLinkCapacity / math.Log2(p.Mu1)
}

// EnergyBound returns Assumption 2's per-request battery-deficit cap for
// a battery of the given capacity: ϖ_min / log2(μ2).
func (p Params) EnergyBound(minBatteryCapacity float64) float64 {
	return minBatteryCapacity / math.Log2(p.Mu2)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
