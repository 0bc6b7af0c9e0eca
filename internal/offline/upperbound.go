package offline

import (
	"fmt"
	"sort"

	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// CutUpperBound computes a *certified* upper bound on the offline
// optimal welfare (Definition 1), complementing the greedy lower
// estimate: together they bracket the unknown OPT.
//
// The bound relaxes the problem to its access-link capacity cut. Every
// accepted request R_i must move δ_i(T) through a user-satellite link of
// its source endpoint and one of its destination endpoint in every
// active slot, so it consumes
//
//	w_i = Σ_{T∈[st_i,ed_i]} δ_i(T)
//
// capacity units from each of its two endpoint "pools", where pool e has
// total capacity Σ_T (USL capacity × number of satellites visible to e
// at T). Relaxing everything else (ISLs, energy, integrality, per-slot
// structure) leaves |E| fractional knapsacks; the fractional knapsack
// optimum of each pool upper-bounds the valuation OPT can route through
// that pool, and since every accepted request is counted in exactly two
// pools,
//
//	OPT ≤ (Σ_e knapsack_e) / 2.
//
// The bound is loose under energy scarcity (it ignores batteries
// entirely) but is sound for any workload.
func CutUpperBound(prov *topology.Provider, reqs []workload.Request) (float64, error) {
	if prov == nil {
		return 0, fmt.Errorf("offline: nil provider")
	}
	uslCap := prov.Config().USLCapacityMbps

	// Group requests by endpoint (keyed by global ID).
	type item struct {
		valuation float64
		weight    float64 // Mbps-slots drawn from the pool
	}
	pools := make(map[int][]item)
	poolCapacity := make(map[int]float64)

	ensurePool := func(ep topology.Endpoint) (int, error) {
		gid := prov.GlobalID(ep)
		if _, ok := poolCapacity[gid]; !ok {
			total := 0.0
			for t := 0; t < prov.Horizon(); t++ {
				vis, err := prov.VisibleSats(ep, t)
				if err != nil {
					return 0, err
				}
				total += uslCap * float64(len(vis))
			}
			poolCapacity[gid] = total
		}
		return gid, nil
	}

	for _, r := range reqs {
		if err := r.Validate(prov.Horizon()); err != nil {
			return 0, err
		}
		weight := 0.0
		for t := r.StartSlot; t <= r.EndSlot; t++ {
			weight += r.RateAt(t)
		}
		for _, ep := range []topology.Endpoint{r.Src, r.Dst} {
			gid, err := ensurePool(ep)
			if err != nil {
				return 0, err
			}
			pools[gid] = append(pools[gid], item{valuation: r.Valuation, weight: weight})
		}
	}

	// Fractional knapsack per pool: sort by value density, fill greedily.
	// Pools are summed in key order and equal densities keep request
	// order, so the bound is the same bits on every call.
	gids := make([]int, 0, len(pools))
	for gid := range pools {
		gids = append(gids, gid)
	}
	sort.Ints(gids)
	total := 0.0
	for _, gid := range gids {
		items, capacity := pools[gid], poolCapacity[gid]
		sort.SliceStable(items, func(a, b int) bool {
			da := items[a].valuation / items[a].weight
			db := items[b].valuation / items[b].weight
			return da > db
		})
		remaining := capacity
		for _, it := range items {
			if remaining <= 0 {
				break
			}
			if it.weight <= remaining {
				total += it.valuation
				remaining -= it.weight
			} else {
				total += it.valuation * remaining / it.weight
				remaining = 0
			}
		}
	}
	return total / 2, nil
}
