package workload_test

import (
	"fmt"

	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// Generate the paper's §VI-A workload over one source-destination pair:
// Poisson arrivals, durations uniform in [1,10] minutes, rates from the
// truncated-exponential demand distribution.
func ExampleGenerate() {
	pair := workload.Pair{
		Src: topology.Endpoint{Kind: topology.EndpointGround, Index: 0},
		Dst: topology.Endpoint{Kind: topology.EndpointGround, Index: 1},
	}
	cfg := workload.DefaultConfig(96, []workload.Pair{pair}, 42)
	cfg.ArrivalRatePerSlot = 1

	reqs, err := workload.Generate(cfg)
	if err != nil {
		panic(err)
	}
	r := reqs[0]
	fmt.Printf("first request: arrives slot %d, active [%d,%d], rate within [500,2000]: %v\n",
		r.ArrivalSlot, r.StartSlot, r.EndSlot, r.RateMbps >= 500 && r.RateMbps <= 2000)
	fmt.Printf("deterministic for a seed: %v\n", len(reqs) > 50)
	// Output:
	// first request: arrives slot 0, active [0,0], rate within [500,2000]: true
	// deterministic for a seed: true
}

// Per-slot demand vectors (the paper's δ_i(T)) drop into the same
// Request type.
func ExampleRequest_RateAt() {
	r := workload.Request{
		StartSlot: 10, EndSlot: 12,
		RateVector: []float64{800, 1500, 600},
	}
	for slot := 10; slot <= 12; slot++ {
		fmt.Printf("slot %d: %.0f Mbps\n", slot, r.RateAt(slot))
	}
	// Output:
	// slot 10: 800 Mbps
	// slot 11: 1500 Mbps
	// slot 12: 600 Mbps
}
