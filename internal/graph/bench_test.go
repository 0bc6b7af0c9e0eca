package graph

import (
	"math/rand"
	"testing"
)

// benchGraph builds a dense-ish random digraph big enough that the
// search arrays dominate allocation, with a sure src->dst route.
func benchGraph(n int) *Graph {
	rng := rand.New(rand.NewSource(9))
	g := New(n)
	for i := 0; i < n-1; i++ {
		// Backbone guarantees reachability.
		_ = g.AddEdge(i, i+1, ClassISL, int32(i), 1+rng.Float64())
	}
	for i := 0; i < 4*n; i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to {
			continue
		}
		_ = g.AddEdge(from, to, ClassISL, int32(i), rng.Float64()*10)
	}
	return g
}

// BenchmarkShortestPath measures the allocate-per-call Dijkstra.
func BenchmarkShortestPath(b *testing.B) {
	g := benchGraph(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ShortestPath(g, 0, 255, nil); !ok {
			b.Fatal("no path")
		}
	}
}

// BenchmarkShortestPathScratch reuses one Scratch across calls — the
// configuration every hot caller uses via the netstate fast path.
func BenchmarkShortestPathScratch(b *testing.B) {
	g := benchGraph(256)
	sc := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ShortestPathWith(g, 0, 255, nil, sc); !ok {
			b.Fatal("no path")
		}
	}
}
