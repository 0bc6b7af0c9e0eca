package pricing

import (
	"math"
	"testing"
)

// exactUnitCost is μ^λ − 1 through math.Pow, the reference the table is
// checked against (λ in [0,1]).
func exactUnitCost(mu, lambda float64) float64 { return math.Pow(mu, lambda) - 1 }

func TestFastPricerMatchesExact(t *testing.T) {
	p := paperParams(t)
	f := p.Fast()
	for i := 0; i <= 100000; i++ {
		lambda := float64(i) / 100000
		exact := exactUnitCost(p.Mu1, lambda)
		fast := f.CongestionUnitCost(lambda)
		tol := 1e-7 * (1 + exact)
		if math.Abs(exact-fast) > tol {
			t.Fatalf("congestion at λ=%v: fast %v vs exact %v", lambda, fast, exact)
		}
		exactE := exactUnitCost(p.Mu2, lambda)
		fastE := f.EnergyUnitCost(lambda)
		if math.Abs(exactE-fastE) > 1e-7*(1+exactE) {
			t.Fatalf("energy at λ=%v: fast %v vs exact %v", lambda, fastE, exactE)
		}
	}
}

func TestFastPricerClamps(t *testing.T) {
	p := paperParams(t)
	f := p.Fast()
	if got := f.EnergyUnitCost(-0.5); got != 0 {
		t.Errorf("negative λ = %v, want 0", got)
	}
	if got := f.EnergyUnitCost(2); math.Abs(got-401) > 1e-6 {
		t.Errorf("λ>1 = %v, want 401", got)
	}
	if got := f.CongestionUnitCost(0); got != 0 {
		t.Errorf("λ=0 = %v, want exactly 0", got)
	}
}

func BenchmarkExactEnergyUnitCost(b *testing.B) {
	p, err := Derive(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += exactUnitCost(p.Mu2, float64(i%1000)/1000)
	}
	_ = sum
}

func BenchmarkFastEnergyUnitCost(b *testing.B) {
	p, err := Derive(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	f := p.Fast()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += f.EnergyUnitCost(float64(i%1000) / 1000)
	}
	_ = sum
}
