package main

import (
	"testing"

	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// TestWireRequestsPinsSlotsForArrivalDrivenServers: against an
// arrival-driven clock every request must declare the generator's slots
// (the server's clock only moves when one does); against a real-time
// clock it must declare none, or the server would book a window its
// clock has already left.
func TestWireRequestsPinsSlotsForArrivalDrivenServers(t *testing.T) {
	reqs := []workload.Request{{
		ID:          7,
		Src:         topology.Endpoint{Kind: topology.EndpointGround, Index: 1},
		Dst:         topology.Endpoint{Kind: topology.EndpointSpace, Index: 2},
		ArrivalSlot: 12, StartSlot: 12, EndSlot: 15,
		RateMbps: 800, Valuation: 3,
	}}
	pinned := wireRequests(reqs, true)[0]
	if pinned.ArrivalSlot == nil || pinned.StartSlot == nil || pinned.EndSlot == nil ||
		*pinned.ArrivalSlot != 12 || *pinned.StartSlot != 12 || *pinned.EndSlot != 15 || pinned.DurationSlots != 0 {
		t.Fatalf("pinned request = %+v, want slots 12/12/15 and no duration", pinned)
	}
	paced := wireRequests(reqs, false)[0]
	if paced.ArrivalSlot != nil || paced.StartSlot != nil || paced.EndSlot != nil || paced.DurationSlots != 4 {
		t.Fatalf("paced request = %+v, want a 4-slot duration and no slots", paced)
	}
	for _, br := range []struct{ src, dst string }{{pinned.Src.Kind, pinned.Dst.Kind}, {paced.Src.Kind, paced.Dst.Kind}} {
		if br.src != "ground" || br.dst != "space" {
			t.Fatalf("endpoints = %s -> %s, want ground -> space", br.src, br.dst)
		}
	}
}
