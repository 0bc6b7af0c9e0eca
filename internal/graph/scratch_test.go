package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestScratchReuseMatchesFreshAllocation hammers one shared Scratch
// across many searches on different random graphs and requires results
// identical to the allocate-per-call path. This is the guard against
// stale-state bleed: a dist or prev entry not reset between calls would
// change some path on some trial.
func TestScratchReuseMatchesFreshAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sc := NewScratch()
	for trial := 0; trial < 80; trial++ {
		n := 4 + rng.Intn(6)
		g := New(n)
		edges := 2 * n
		for i := 0; i < edges; i++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from == to {
				continue
			}
			class := ClassISL
			if rng.Intn(4) == 0 {
				class = ClassUSL
			}
			mustAdd(t, g, from, to, class, int32(i), rng.Float64()*10)
		}
		var transit TransitCostFunc
		if trial%3 == 1 {
			costs := make([]float64, n)
			for i := range costs {
				costs[i] = rng.Float64() * 4
			}
			transit = func(node int, in, out EdgeClass) float64 {
				c := costs[node]
				if in == ClassUSL {
					c *= 2
				}
				return c
			}
		}
		src, dst := rng.Intn(n), rng.Intn(n)

		pWant, okWant := ShortestPath(g, src, dst, transit)
		pGot, okGot := ShortestPathWith(g, src, dst, transit, sc)
		if okWant != okGot || !reflect.DeepEqual(pWant, pGot) {
			t.Fatalf("trial %d: dijkstra diverged with scratch\nfresh:   ok=%v %+v\nscratch: ok=%v %+v",
				trial, okWant, pWant, okGot, pGot)
		}
	}
}
