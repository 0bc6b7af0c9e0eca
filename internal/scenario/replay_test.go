package scenario

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spacebooking/internal/router"
	"spacebooking/internal/sim"
	"spacebooking/internal/topology"
	"spacebooking/internal/trace"
	"spacebooking/internal/workload"
)

// decisionLog writes reqs as the decision records sim.DecisionRecord
// builds, through the real JSONL writer, with seq i+1 for reqs[i] but the
// lines in the order perm gives (nil: seq order) — as a served log, whose
// handlers can finish out of commit order, holds them.
func decisionLog(t testing.TB, specName string, reqs []workload.Request, perm []int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if err := w.Emit(trace.Record{Kind: trace.KindRunInfo, Algorithm: "CEAR", Spec: specName}); err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if perm != nil {
			i = perm[i]
		}
		d := router.Decision{Accepted: true, Price: float64(i) / 3}
		if err := w.Emit(sim.DecisionRecord(reqs[i], d, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRequestsFromTraceRoundTrip: a generated request stream written as
// decision records in a shuffled line order must come back equal, in seq
// order, after a parse — including float fields, which survive because Go
// marshals the shortest representation that parses back exactly. A
// refused booking (no seq) in the log is not replayed.
func TestRequestsFromTraceRoundTrip(t *testing.T) {
	spec := multiClassSpec()
	reqs, err := Generate(spec, testBinding(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) == 0 {
		t.Fatal("empty workload")
	}
	log := decisionLog(t, spec.Name, reqs, rand.New(rand.NewSource(1)).Perm(len(reqs)))
	refused := sim.DecisionRecord(reqs[0], router.Decision{}, 0)
	refused.Outcome = "overloaded"
	records, err := trace.Read(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	got, specName, err := RequestsFromTrace(append(records, refused))
	if err != nil {
		t.Fatal(err)
	}
	if specName != spec.Name {
		t.Fatalf("spec name %q, want %q", specName, spec.Name)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Fatal("round-tripped requests differ from originals")
	}
}

func TestRequestsFromTraceErrors(t *testing.T) {
	good := func(seq int) trace.Record {
		return trace.Record{Kind: trace.KindDecision, SrcKind: "ground", DstKind: "ground", DstIndex: 1, Seq: seq}
	}
	bad := good(1)
	bad.SrcKind = "sea"
	neg := good(1)
	neg.SrcIndex = -1
	for name, records := range map[string][]trace.Record{
		"no decisions":        {{Kind: trace.KindRunInfo}},
		"no seq":              {{Kind: trace.KindDecision, SrcKind: "ground", DstKind: "ground", DstIndex: 1}},
		"unknown kind":        {bad},
		"negative index":      {neg},
		"gap (a dropped seq)": {good(1), good(3)},
		"repeated seq":        {good(1), good(1), good(2)},
		"negative seq":        {good(-1), good(1)},
	} {
		if _, _, err := RequestsFromTrace(records); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzReplayLog: arbitrary JSONL through trace.Read and RequestsFromTrace
// never panics, and either fails or yields requests with known endpoint
// kinds and non-negative endpoint indices. Decision records built by the
// constructor from the fuzzed floats come back as the same requests on
// Float64bits, in seq order, whatever order their lines are in. Seeded
// from TestRequestsFromTraceRoundTrip's log and TestRequestsFromTraceErrors'
// rows.
func FuzzReplayLog(f *testing.F) {
	reqs, err := Generate(multiClassSpec(), testBinding(20))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(decisionLog(f, "mixed", reqs[:min(3, len(reqs))], []int{2, 0, 1}), 1250.0625, 2.3e9)
	for _, line := range []string{
		`{"kind":"run_info"}`,
		`{"kind":"decision","src_kind":"ground","dst_kind":"ground","dst_index":1}`,
		`{"kind":"decision","src_kind":"sea","dst_kind":"ground","seq":1}`,
		`{"kind":"decision","src_kind":"ground","src_index":-1,"dst_kind":"ground","seq":1}`,
		`{"kind":"decision","src_kind":"ground","dst_kind":"space","seq":1}` + "\n" + `{"kind":"decision","src_kind":"ground","dst_kind":"space","seq":3}`,
		`{"kind":"decision","src_kind":"ground","dst_kind":"space","seq":1}` + "\n" + `{"kind":"decision","src_kind":"ground","dst_kind":"space","seq":1}`,
	} {
		f.Add([]byte(line+"\n"), 0.1, 1e8)
	}
	f.Fuzz(func(t *testing.T, data []byte, rate, valuation float64) {
		if records, err := trace.Read(bytes.NewReader(data)); err == nil {
			if got, _, err := RequestsFromTrace(records); err == nil {
				for _, r := range got {
					for _, e := range []topology.Endpoint{r.Src, r.Dst} {
						if e.Kind != topology.EndpointGround && e.Kind != topology.EndpointSpace || e.Index < 0 {
							t.Fatalf("replayed endpoint %+v from %q", e, data)
						}
					}
				}
			}
		}
		// JSON has no NaN or infinity, and a zero is omitted and read back
		// as +0, so -0 cannot survive; admission never sees any of them.
		for _, v := range []float64{rate, valuation} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
				return
			}
		}
		want := []workload.Request{
			{ID: 7, Src: topology.Endpoint{Kind: topology.EndpointSpace, Index: 3},
				Dst:         topology.Endpoint{Kind: topology.EndpointGround, Index: 0},
				ArrivalSlot: 2, StartSlot: 2, EndSlot: 5, RateMbps: rate, Valuation: valuation, Class: "eo"},
			{ID: 4, Src: topology.Endpoint{Kind: topology.EndpointGround, Index: 1},
				Dst:         topology.Endpoint{Kind: topology.EndpointSpace, Index: 9},
				ArrivalSlot: 2, StartSlot: 4, EndSlot: 4, RateMbps: valuation, Valuation: rate},
		}
		records, err := trace.Read(bytes.NewReader(decisionLog(t, "", want, []int{1, 0})))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := RequestsFromTrace(records)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("replayed %d requests, want %d", len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if math.Float64bits(g.RateMbps) != math.Float64bits(w.RateMbps) ||
				math.Float64bits(g.Valuation) != math.Float64bits(w.Valuation) {
				t.Fatalf("request %d: rate %v valuation %v, want %v and %v bit for bit", i, g.RateMbps, g.Valuation, w.RateMbps, w.Valuation)
			}
			g.RateMbps, g.Valuation, w.RateMbps, w.Valuation = 0, 0, 0, 0
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("request %d: %+v, want %+v", i, g, w)
			}
		}
	})
}
