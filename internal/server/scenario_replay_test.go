package server

import (
	"bytes"
	"context"
	"net/http"
	"reflect"
	"testing"
	"time"

	"spacebooking/internal/scenario"
	"spacebooking/internal/sim"
	"spacebooking/internal/trace"
)

// TestScenarioReplayThroughServer is the serving-path half of the
// record/replay acceptance gate: a scenario-driven batch run recorded
// to a request trace, replayed one booking at a time through the HTTP
// front end, must reproduce every decision, price, rejection reason and
// hop count, and the drained server's final Result must equal the batch
// Result exactly.
func TestScenarioReplayThroughServer(t *testing.T) {
	prov := testProvider(t)
	rc := testRunConfig(t, 3, 4242)

	spec := scenario.Spec{
		Version: scenario.SpecVersion,
		Name:    "served-replay",
		Seed:    4242,
		Classes: []scenario.Class{
			{
				Name:    "interactive",
				Arrival: scenario.ArrivalSpec{Process: scenario.ProcessPoisson, RatePerSlot: 2},
				Mix: scenario.MixSpec{MinDurationSlots: 1, MaxDurationSlots: 5,
					MinRateMbps: 500, MaxRateMbps: 2000, MeanRateMbps: 1250},
			},
			{
				Name:    "transfer",
				Arrival: scenario.ArrivalSpec{Process: scenario.ProcessGamma, RatePerSlot: 1, Shape: 3},
				Mix: scenario.MixSpec{MinDurationSlots: 3, MaxDurationSlots: 10,
					MinRateMbps: 1000, MaxRateMbps: 4000, MeanRateMbps: 2000},
			},
		},
	}
	gen, err := scenario.NewGenerator(spec, scenario.Binding{
		Horizon: 48, Pairs: testPairs(), DefaultValuation: 1e8,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Record: the batch path drains the generator with request recording.
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	batchRC := rc
	batchRC.Trace = tw
	batchRC.RecordRequests = true
	batchRC.SpecName = spec.Name
	batchRC.Source = gen
	batchRes, err := sim.Run(prov, batchRC)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reqs, name, err := scenario.RequestsFromTrace(records)
	if err != nil {
		t.Fatal(err)
	}
	if name != spec.Name {
		t.Fatalf("trace carries spec %q, want %q", name, spec.Name)
	}
	var decisions []trace.Record
	for _, r := range records {
		if r.Kind == trace.KindDecision {
			decisions = append(decisions, r)
		}
	}
	if len(decisions) == 0 || len(decisions) != len(reqs) {
		t.Fatalf("trace has %d decisions for %d requests", len(decisions), len(reqs))
	}

	// Replay: the same stream over HTTP with pinned slots.
	srv, hs := newTestServer(t, Config{Provider: prov, Run: rc, BatchSize: 1, QueueDepth: 4})
	for i, req := range reqs {
		arrival, start, end := req.ArrivalSlot, req.StartSlot, req.EndSlot
		code, out := postBook(t, hs.URL, BookRequest{
			Src:         refOf(req.Src),
			Dst:         refOf(req.Dst),
			RateMbps:    req.RateMbps,
			Valuation:   req.Valuation,
			ArrivalSlot: &arrival,
			StartSlot:   &start,
			EndSlot:     &end,
		})
		if code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d (%+v)", i, code, out)
		}
		want := decisions[i]
		got := out.Reservation
		if got == nil {
			t.Fatalf("request %d: no reservation in response", i)
		}
		if accepted := got.Status == StatusAccepted; accepted != want.Accepted {
			t.Fatalf("request %d: served accepted=%v, recorded accepted=%v", i, accepted, want.Accepted)
		}
		if got.Price != want.Price {
			t.Fatalf("request %d: served price %v, recorded price %v", i, got.Price, want.Price)
		}
		if got.Status == StatusRejected && got.Reason != want.Reason {
			t.Fatalf("request %d: served reason %q, recorded reason %q", i, got.Reason, want.Reason)
		}
		if got.TotalHops != want.TotalHops {
			t.Fatalf("request %d: served hops %d, recorded hops %d", i, got.TotalHops, want.TotalHops)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	servedRes, err := srv.Result()
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, srv)
	if !reflect.DeepEqual(batchRes, servedRes) {
		t.Fatalf("served result diverges from recorded batch result:\nbatch:  %+v\nserved: %+v", batchRes, servedRes)
	}
}
