package pricing_test

import (
	"fmt"

	"spacebooking/internal/pricing"
)

// The paper's §VI-A parameters: n=20 hops, 𝕋=10 slots, F1=F2=1 give the
// base price factors μ1=μ2=402 and a competitive ratio of ~35.6.
func ExampleDerive() {
	params, err := pricing.Derive(1, 1, 20, 10)
	if err != nil {
		panic(err)
	}
	fmt.Printf("mu1=%.0f mu2=%.0f\n", params.Mu1, params.Mu2)
	fmt.Printf("competitive ratio %.1f\n", params.CompetitiveRatio())
	prices := params.Fast()
	fmt.Printf("idle price %.0f, half-utilised %.1f, saturated %.0f\n",
		prices.CongestionUnitCost(0),
		prices.CongestionUnitCost(0.5),
		prices.CongestionUnitCost(1))
	// Output:
	// mu1=402 mu2=402
	// competitive ratio 35.6
	// idle price 0, half-utilised 19.0, saturated 401
}
