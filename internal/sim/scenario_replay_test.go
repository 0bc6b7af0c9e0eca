package sim

import (
	"bytes"
	"reflect"
	"testing"

	"spacebooking/internal/obs"
	"spacebooking/internal/scenario"
	"spacebooking/internal/trace"
	"spacebooking/internal/workload"
)

// replaySpec is a three-class scenario exercising every arrival process
// plus a mid-run flash crowd, so the record/replay gate covers the full
// request-mix surface, not just the Poisson happy path.
func replaySpec(seed int64) scenario.Spec {
	return scenario.Spec{
		Version: scenario.SpecVersion,
		Name:    "replay-e2e",
		Seed:    seed,
		Classes: []scenario.Class{
			{
				Name:    "web",
				Arrival: scenario.ArrivalSpec{Process: scenario.ProcessPoisson, RatePerSlot: 1.5},
				Mix: scenario.MixSpec{MinDurationSlots: 1, MaxDurationSlots: 6,
					MinRateMbps: 500, MaxRateMbps: 2000, MeanRateMbps: 1250},
				Pairs: []int{0, 1},
			},
			{
				Name:    "bulk",
				Arrival: scenario.ArrivalSpec{Process: scenario.ProcessGamma, RatePerSlot: 1, Shape: 2},
				Mix: scenario.MixSpec{MinDurationSlots: 4, MaxDurationSlots: 12,
					MinRateMbps: 1000, MaxRateMbps: 4000, MeanRateMbps: 2000, Valuation: 5e7},
			},
			{
				Name:    "eo",
				Arrival: scenario.ArrivalSpec{Process: scenario.ProcessWeibull, RatePerSlot: 0.5, Shape: 0.8},
				Mix: scenario.MixSpec{MinDurationSlots: 1, MaxDurationSlots: 3,
					MinRateMbps: 2000, MaxRateMbps: 8000, MeanRateMbps: 4000},
				Pairs: []int{2},
			},
		},
		Events: []scenario.Event{
			{Kind: scenario.EventFlashCrowd, StartSlot: 20, EndSlot: 35, Factor: 3, Classes: []string{"web"}},
		},
	}
}

func replayBinding() scenario.Binding {
	return scenario.Binding{
		Horizon:          60,
		Pairs:            testPairs(),
		Sites:            testSites(),
		DefaultValuation: 1e8,
	}
}

// recordedRun executes one traced run with request recording on and
// returns the Result plus the raw JSONL trace bytes. It drives the
// engine the way Run does (Admit in a loop, Finish) so that it can check
// the state's invariants before the final sweep.
func recordedRun(t *testing.T, src workload.Source, specName string, seed int64) (*Result, []byte) {
	t.Helper()
	prov := testProvider(t)
	rc, err := DefaultRunConfig(AlgCEAR, testWorkload(3, seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	rc.Trace = tw
	rc.RecordRequests = true
	rc.SpecName = specName
	rc.Source = src
	eng, err := NewEngine(prov, rc)
	if err != nil {
		t.Fatal(err)
	}
	for req, ok := src.Next(); ok; req, ok = src.Next() {
		if _, err := eng.Admit(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.State().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestScenarioRecordReplayByteIdentical is the PR's acceptance gate for
// the batch path: a spec-driven run recorded to a request trace, then
// replayed from that trace, must reproduce the decisions, prices and
// final Result byte-for-byte — across seeds. Byte equality of the two
// JSONL traces covers every decision record (accept/reject, price,
// reason, hops); DeepEqual on the Results covers the committed state.
func TestScenarioRecordReplayByteIdentical(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		spec := replaySpec(seed)
		gen, err := scenario.NewGenerator(spec, replayBinding())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		recRes, recTrace := recordedRun(t, gen, spec.Name, seed)
		if recRes.TotalRequests == 0 {
			t.Fatalf("seed %d: scenario produced no requests", seed)
		}

		records, err := trace.Read(bytes.NewReader(recTrace))
		if err != nil {
			t.Fatalf("seed %d: reading recorded trace: %v", seed, err)
		}
		reqs, name, err := scenario.RequestsFromTrace(records)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if name != spec.Name {
			t.Fatalf("seed %d: trace carries spec %q, want %q", seed, name, spec.Name)
		}
		if len(reqs) != recRes.TotalRequests {
			t.Fatalf("seed %d: trace has %d requests, run admitted %d", seed, len(reqs), recRes.TotalRequests)
		}

		repRes, repTrace := recordedRun(t, workload.NewSliceSource(reqs), name, seed)
		if !reflect.DeepEqual(recRes, repRes) {
			t.Fatalf("seed %d: replay Result diverges:\nrecord: %+v\nreplay: %+v", seed, recRes, repRes)
		}
		if !bytes.Equal(recTrace, repTrace) {
			t.Fatalf("seed %d: replay trace is not byte-identical (%d vs %d bytes)",
				seed, len(recTrace), len(repTrace))
		}
	}
}

// TestScenarioClassCountersTracked: per-class admission counters appear
// when arrivals carry a class and an observability registry is present.
func TestScenarioClassCountersTracked(t *testing.T) {
	spec := replaySpec(5)
	gen, err := scenario.NewGenerator(spec, replayBinding())
	if err != nil {
		t.Fatal(err)
	}
	prov := testProvider(t)
	rc, err := DefaultRunConfig(AlgCEAR, testWorkload(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	rc.Obs = reg
	rc.Source = gen
	res, err := Run(prov, rc)
	if err != nil {
		t.Fatal(err)
	}
	var classTotal int64
	for _, cls := range []string{"web", "bulk", "eo"} {
		n := reg.Counter("sim.class." + cls + ".total").Value()
		if n == 0 {
			t.Errorf("class %q saw no arrivals", cls)
		}
		classTotal += n
	}
	if classTotal != int64(res.TotalRequests) {
		t.Errorf("class counters sum to %d, run total is %d", classTotal, res.TotalRequests)
	}
}
