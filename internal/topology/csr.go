package topology

import "spacebooking/internal/graph"

// CSR is a compressed-sparse-row flattening of the static +Grid ISL
// fabric: all directed ISL edges live in contiguous arrays indexed by
// per-node offsets, so a search can iterate a satellite's neighbours as
// one slice scan with no interface dispatch and no per-node slice header
// chasing. The fabric is time-invariant (only USL visibility changes per
// slot), so the CSR is built once at provider construction and shared,
// read-only, by every run — it is the static half of the routing fast
// path; the visibility NewProvider freezes is the dynamic half (per-slot
// USL visibility).
//
// Edge i of node s occupies an index in [Offsets[s], Offsets[s+1]); the
// edge order matches ISLNeighbors(s), which the flat and generic views
// rely on for identical search tie-breaking.
type CSR struct {
	// Offsets has NumSats+1 entries; node s's edges span
	// [Offsets[s], Offsets[s+1]).
	Offsets []int32
	// To[i] is the destination satellite of edge i.
	To []int32
	// Class[i] is the edge's link class (ClassISL for the whole +Grid
	// fabric today; kept per-edge so a future mixed static fabric needs
	// no format change).
	Class []graph.EdgeClass
	// Cost[i] is the static base cost of the edge. The +Grid fabric is
	// unpriced at rest (zero); per-slot congestion prices are layered on
	// top by the slot views.
	Cost []float64
	// Payload[i] is the dense edge index itself (== i), usable as a key
	// into per-edge side tables (cost caches, ledger indices).
	Payload []int32
}

// NumEdges returns the number of directed ISL edges.
func (c *CSR) NumEdges() int { return len(c.To) }

// buildISLCSR flattens the per-satellite neighbour lists.
func buildISLCSR(islNeighbors [][]int) *CSR {
	total := 0
	for _, ns := range islNeighbors {
		total += len(ns)
	}
	c := &CSR{
		Offsets: make([]int32, len(islNeighbors)+1),
		To:      make([]int32, 0, total),
		Class:   make([]graph.EdgeClass, 0, total),
		Cost:    make([]float64, 0, total),
		Payload: make([]int32, 0, total),
	}
	for s, ns := range islNeighbors {
		c.Offsets[s] = int32(len(c.To))
		for _, n := range ns {
			c.Payload = append(c.Payload, int32(len(c.To)))
			c.To = append(c.To, int32(n))
			c.Class = append(c.Class, graph.ClassISL)
			c.Cost = append(c.Cost, 0)
		}
	}
	c.Offsets[len(islNeighbors)] = int32(len(c.To))
	return c
}

// ISLCSR returns the CSR flattening of the static ISL grid. The returned
// structure is immutable and shared; callers must not modify it.
func (p *Provider) ISLCSR() *CSR { return p.islCSR }
