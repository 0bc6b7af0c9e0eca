package router

import (
	"fmt"

	"spacebooking/internal/geo"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// speedOfLightKmPerMs is the propagation speed over free-space links.
const speedOfLightKmPerMs = 299792.458 / 1000

// PlanLatencyMs computes the one-way propagation latency (milliseconds)
// of each slot-path of a plan and returns the mean — the end-to-end
// figure the paper's motivating applications (teleconferencing,
// disaster response) care about. Processing and queueing delays are out
// of scope; with reserved bandwidth the propagation term dominates.
func PlanLatencyMs(prov *topology.Provider, req workload.Request, plan Plan) (float64, error) {
	if len(plan.Paths) == 0 {
		return 0, fmt.Errorf("router: empty plan")
	}
	numSats := prov.NumSats()
	total := 0.0
	for _, sp := range plan.Paths {
		// Positions are computed on demand, so each node's is taken once
		// and carried to the next hop.
		pos := func(node int) (geo.Vec3, error) {
			switch {
			case node < numSats:
				return prov.SatPosECEF(sp.Slot, node), nil
			case node == numSats:
				return prov.EndpointECEF(req.Src, sp.Slot)
			case node == numSats+1:
				return prov.EndpointECEF(req.Dst, sp.Slot)
			default:
				return geo.Vec3{}, fmt.Errorf("router: node %d outside search space", node)
			}
		}
		km := 0.0
		var prev geo.Vec3
		for i, node := range sp.Path.Nodes {
			cur, err := pos(node)
			if err != nil {
				return 0, err
			}
			if i > 0 {
				km += prev.DistanceTo(cur)
			}
			prev = cur
		}
		total += km / speedOfLightKmPerMs
	}
	return total / float64(len(plan.Paths)), nil
}
