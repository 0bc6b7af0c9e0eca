package graph

import (
	"testing"

	"spacebooking/internal/obs"
)

// lineGraph builds 0 -> 1 -> ... -> n-1 with unit ISL edges.
func lineGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i < n-1; i++ {
		if err := g.AddEdge(i, i+1, ClassISL, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestSearchInstruments(t *testing.T) {
	reg := obs.New()
	pops := reg.Counter("graph.dijkstra.heap_pops")
	relax := reg.Counter("graph.dijkstra.edge_relaxations")

	g := lineGraph(t, 6)
	g.Instrument(&Instruments{HeapPops: pops, EdgeRelaxations: relax})
	if _, ok := g.ShortestPath(0, 5, nil); !ok {
		t.Fatal("path not found")
	}
	if pops.Value() == 0 || relax.Value() == 0 {
		t.Fatalf("dijkstra counters not advanced: pops=%d relax=%d", pops.Value(), relax.Value())
	}
}

// TestInstrumentsAreHandleLocal verifies the concurrency contract of the
// explicit-handle design: searches over a graph advance only the handle
// that graph carries, so two graphs wired to different registries never
// cross-count — and a detached graph counts nothing.
func TestInstrumentsAreHandleLocal(t *testing.T) {
	regA, regB := obs.New(), obs.New()
	a := lineGraph(t, 6)
	a.Instrument(&Instruments{HeapPops: regA.Counter("pops")})
	b := lineGraph(t, 6)
	b.Instrument(&Instruments{HeapPops: regB.Counter("pops")})
	plain := lineGraph(t, 6)

	if _, ok := a.ShortestPath(0, 5, nil); !ok {
		t.Fatal("path not found")
	}
	if _, ok := plain.ShortestPath(0, 5, nil); !ok {
		t.Fatal("path not found")
	}
	if got := regA.Counter("pops").Value(); got == 0 {
		t.Fatal("instrumented graph did not count")
	}
	if got := regB.Counter("pops").Value(); got != 0 {
		t.Fatalf("graph B's registry advanced by %d from another graph's search", got)
	}
}

// TestInstrumentedSearchAllocParity verifies the acceptance criterion
// that instrumentation adds no allocations to the search hot path: the
// per-search allocation count is identical with instruments detached
// (the nil fast path) and attached.
func TestInstrumentedSearchAllocParity(t *testing.T) {
	g := lineGraph(t, 16)
	search := func() {
		if _, ok := g.ShortestPath(0, 15, nil); !ok {
			t.Fatal("path not found")
		}
	}

	g.Instrument(nil)
	detached := testing.AllocsPerRun(200, search)
	reg := obs.New()
	g.Instrument(&Instruments{
		HeapPops:        reg.Counter("pops"),
		EdgeRelaxations: reg.Counter("relax"),
	})
	attached := testing.AllocsPerRun(200, search)

	if detached != attached {
		t.Fatalf("allocs per search: detached=%v attached=%v, want identical", detached, attached)
	}
}
