package pricing

import (
	"math"
	"testing"
	"testing/quick"
)

func paperParams(t *testing.T) Params {
	t.Helper()
	p, err := Derive(1, 1, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDerivePaperValues(t *testing.T) {
	p := paperParams(t)
	// §VI-A: n=20, 𝕋=10, F1=F2=1 → μ = 2(200+1) = 402.
	if p.Mu1 != 402 || p.Mu2 != 402 {
		t.Errorf("μ1=%v μ2=%v, want 402 each", p.Mu1, p.Mu2)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveErrors(t *testing.T) {
	tests := []struct {
		name           string
		f1, f2         float64
		hops, duration int
	}{
		{"zero F1", 0, 1, 20, 10},
		{"negative F2", 1, -1, 20, 10},
		{"zero hops", 1, 1, 0, 10},
		{"zero duration", 1, 1, 20, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Derive(tt.f1, tt.f2, tt.hops, tt.duration); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestValidateRejectsDegenerateMu(t *testing.T) {
	if err := (Params{Mu1: 1, Mu2: 402}).Validate(); err == nil {
		t.Error("μ1=1 should be invalid")
	}
	if err := (Params{Mu1: 402, Mu2: 0.5}).Validate(); err == nil {
		t.Error("μ2<1 should be invalid")
	}
}

func TestCostEndpoints(t *testing.T) {
	p := paperParams(t)
	// Zero utilization → zero price (idle resources are free, so the
	// first request takes a shortest path).
	if got := p.CongestionUnitCost(0); got != 0 {
		t.Errorf("unit cost at λ=0: %v", got)
	}
	if got := p.EnergyUnitCost(0); got != 0 {
		t.Errorf("energy unit cost at λ=0: %v", got)
	}
	// Full utilization → μ−1.
	if got := p.CongestionUnitCost(1); math.Abs(got-401) > 1e-9 {
		t.Errorf("unit cost at λ=1: %v, want 401", got)
	}
	if got := p.EnergyUnitCost(1); math.Abs(got-401) > 1e-9 {
		t.Errorf("energy unit cost at λ=1: %v, want 401", got)
	}
	if got := p.CongestionUnitCost(0.5); math.Abs(got-(math.Sqrt(402)-1)) > 1e-12 {
		t.Errorf("unit cost at λ=0.5: %v", got)
	}
}

func TestCostMonotoneAndConvex(t *testing.T) {
	p := paperParams(t)
	prev := -1.0
	prevDelta := 0.0
	for i := 0; i <= 100; i++ {
		l := float64(i) / 100
		c := p.CongestionUnitCost(l)
		if c <= prev {
			t.Fatalf("cost not strictly increasing at λ=%v", l)
		}
		if i > 0 {
			delta := c - prev
			if i > 1 && delta < prevDelta {
				t.Fatalf("cost not convex at λ=%v", l)
			}
			prevDelta = delta
		}
		prev = c
	}
}

func TestCostClampsUtilization(t *testing.T) {
	p := paperParams(t)
	if got := p.CongestionUnitCost(-0.5); got != 0 {
		t.Errorf("negative λ cost = %v, want 0", got)
	}
	if got := p.CongestionUnitCost(1.5); math.Abs(got-401) > 1e-9 {
		t.Errorf("λ>1 cost = %v, want clamp at 401", got)
	}
}

func TestCompetitiveRatio(t *testing.T) {
	p := paperParams(t)
	want := 2*math.Log2(402*402) + 1
	if got := p.CompetitiveRatio(); math.Abs(got-want) > 1e-9 {
		t.Errorf("ratio = %v, want %v", got, want)
	}
	// ~35.6 for the paper's parameters.
	if got := p.CompetitiveRatio(); got < 35 || got > 36 {
		t.Errorf("ratio = %v, expected ~35.6", got)
	}
}

func TestAssumptionBounds(t *testing.T) {
	p := paperParams(t)
	if got := p.MaxValuation(); got != 400 {
		t.Errorf("max valuation = %v, want 400 (n𝕋F1 + n𝕋F2)", got)
	}
	// Assumption 2: δ ≤ c_min / log2(μ1).
	want := 4000 / math.Log2(402)
	if got := p.DemandBound(4000); math.Abs(got-want) > 1e-9 {
		t.Errorf("demand bound = %v, want %v", got, want)
	}
	wantE := 117000 / math.Log2(402)
	if got := p.EnergyBound(117000); math.Abs(got-wantE) > 1e-9 {
		t.Errorf("energy bound = %v, want %v", got, wantE)
	}
}

// Property: raising F raises μ and therefore every non-trivial price
// (more conservative pricing).
func TestConservativenessMonotone(t *testing.T) {
	f := func(rawF float64, rawLambda float64) bool {
		f2 := 0.5 + math.Mod(math.Abs(rawF), 8)
		lambda := math.Mod(math.Abs(rawLambda), 1)
		if math.IsNaN(f2) || math.IsNaN(lambda) || lambda == 0 {
			return true
		}
		base, err := Derive(1, f2, 20, 10)
		if err != nil {
			return false
		}
		higher, err := Derive(1, f2*2, 20, 10)
		if err != nil {
			return false
		}
		return higher.EnergyUnitCost(lambda) > base.EnergyUnitCost(lambda)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
