package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
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

// TestRejectsBeforeFetchingConfig: a bad option exits 2 with nothing on
// stdout, before any request reaches the daemon. An open-loop -rate of
// NaN or 1e10 used to panic in time.NewTicker, -rate 0 printed an
// empty SUMMARY and exited 0, and a negative -n or -duration passed the
// bound check and ran unbounded.
func TestRejectsBeforeFetchingConfig(t *testing.T) {
	var hits atomic.Int64
	daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "not a daemon", http.StatusInternalServerError)
	}))
	defer daemon.Close()
	for _, row := range [][]string{
		{"-mode", "open", "-rate", "NaN"},
		{"-mode", "open", "-rate", "+Inf"},
		{"-mode", "open", "-rate", "1e10"},  // an interval under 1ns
		{"-mode", "open", "-rate", "1e-11"}, // an interval that overflows a time.Duration
		{"-mode", "open", "-rate", "0"},
		{"-mode", "open", "-rate", "-1"},
		{"-mode", "bogus"},
		{"-concurrency", "0"},
		{"-n", "0", "-duration", "0"},
		{"-n", "-1", "-duration", "0"},
		{"-n", "0", "-duration", "-1s"},
		{"-n", "5", "-duration", "-1s"},
	} {
		args := append([]string{"-addr", daemon.URL}, row...)
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q; want 2 and nothing on stdout", row, code, out.String())
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("the daemon saw %d requests; options must be checked before /v1/config is fetched", n)
	}
}
