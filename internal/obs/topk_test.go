package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestTopKSumExactTotal pins the space-saving invariant the rejection
// attribution relies on: however many evictions happen, the sum over
// the retained entries equals the sum of every Add exactly.
func TestTopKSumExactTotal(t *testing.T) {
	tk := NewTopK(4, TopKSum)
	var want float64
	// 16 distinct keys into 4 slots forces repeated evictions; key 3
	// is the heavy hitter and must survive them.
	for round := 0; round < 8; round++ {
		for key := uint64(0); key < 16; key++ {
			delta := 1.0
			if key == 3 {
				delta = 10
			}
			tk.Add(key, delta)
			want += delta
		}
	}
	snap := tk.Snapshot()
	if snap.Total != want {
		t.Fatalf("Total = %v, want %v", snap.Total, want)
	}
	if len(snap.Entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(snap.Entries))
	}
	var sum float64
	for _, e := range snap.Entries {
		sum += e.Value
	}
	if sum != want {
		t.Fatalf("entry sum %v != total added %v (eviction lost or duplicated mass)", sum, want)
	}
	if snap.Entries[0].Key != 3 {
		t.Fatalf("heavy hitter evicted: top entry is key %d (%v)", snap.Entries[0].Key, snap.Entries)
	}
	if snap.K != 4 || snap.Mode != "sum" || snap.Total != want {
		t.Fatalf("snapshot header = %+v", snap)
	}
}

func TestTopKMaxMode(t *testing.T) {
	tk := NewTopK(2, TopKMax)
	tk.Observe(1, 0.5)
	tk.Observe(1, 0.2) // lower observation must not shrink the max
	tk.Observe(2, 0.8)
	tk.Observe(3, 0.1) // full and below the min: dropped
	tk.Observe(4, 0.6) // full and above the min: evicts key 1
	snap := tk.Snapshot()
	if snap.Mode != "max" || snap.Total != 5 {
		t.Fatalf("snapshot header = %+v", snap)
	}
	if len(snap.Entries) != 2 || snap.Entries[0].Key != 2 || snap.Entries[0].Value != 0.8 ||
		snap.Entries[1].Key != 4 || snap.Entries[1].Value != 0.6 {
		t.Fatalf("entries = %+v", snap.Entries)
	}
	// Mode mismatch calls are no-ops.
	tk.Add(9, 100)
	if got := tk.Snapshot(); len(got.Entries) != 2 || got.Total != 5 {
		t.Fatalf("Add on a max tracker mutated it: %+v", got)
	}
	sum := NewTopK(2, TopKSum)
	sum.Observe(1, 7)
	if got := sum.Snapshot(); len(got.Entries) != 0 || got.Total != 0 {
		t.Fatalf("Observe on a sum tracker mutated it: %+v", got)
	}
}

func TestTopKSnapshotOrderingAndLabeler(t *testing.T) {
	tk := NewTopK(4, TopKSum)
	tk.Add(7, 2)
	tk.Add(5, 2) // ties with 7: lower key first
	tk.Add(9, 5)
	tk.SetLabeler(func(key uint64) string {
		if key == 9 {
			return "hot"
		}
		return ""
	})
	snap := tk.Snapshot()
	wantKeys := []uint64{9, 5, 7}
	for i, w := range wantKeys {
		if snap.Entries[i].Key != w {
			t.Fatalf("order = %+v, want keys %v", snap.Entries, wantKeys)
		}
	}
	if snap.Entries[0].Label != "hot" || snap.Entries[1].Label != "" {
		t.Fatalf("labels = %+v", snap.Entries)
	}
}

func TestNilTopK(t *testing.T) {
	var tk *TopK
	tk.Add(1, 1)
	tk.Observe(1, 1)
	tk.SetLabeler(func(uint64) string { return "x" })
	if snap := tk.Snapshot(); snap.K != 0 || snap.Total != 0 || len(snap.Entries) != 0 {
		t.Fatalf("nil snapshot = %+v", snap)
	}
	var r *Registry
	if r.TopK("x", 4, TopKSum) != nil {
		t.Fatal("nil registry must hand out a nil tracker")
	}
}

func TestTopKRegistryCreate(t *testing.T) {
	r := New()
	tk := r.TopK("hot.links", 8, TopKSum)
	if r.TopK("hot.links", 999, TopKMax) != tk {
		t.Fatal("same name must return the same tracker")
	}
	// The first creation fixes capacity and mode.
	tk.Add(2, 1)
	snap := tk.Snapshot()
	if snap.K != 8 || snap.Mode != TopKSum.String() || snap.Total != 1 || len(snap.Entries) != 1 {
		t.Fatalf("tracker = %+v", snap)
	}
}

func TestTopKCapacityClamp(t *testing.T) {
	tk := NewTopK(0, TopKSum)
	tk.Add(1, 1)
	tk.Add(2, 1)
	snap := tk.Snapshot()
	if snap.K != 1 || len(snap.Entries) != 1 || snap.Total != 2 {
		t.Fatalf("k<1 must clamp to one entry: %+v", snap)
	}
}

// TestTopKAddAllocs is the acceptance check that per-rejection
// attribution is allocation-free on the hot path (and free when nil).
func TestTopKAddAllocs(t *testing.T) {
	tk := NewTopK(32, TopKSum)
	key := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		tk.Add(key%64, 1) // steady churn through twice the capacity
		key++
	})
	if allocs != 0 {
		t.Fatalf("Add allocated %v times per op, want 0", allocs)
	}
	var nilTK *TopK
	if a := testing.AllocsPerRun(1000, func() { nilTK.Add(1, 1) }); a != 0 {
		t.Fatalf("nil Add allocated %v times per op", a)
	}
	mx := NewTopK(32, TopKMax)
	v := 0.0
	if a := testing.AllocsPerRun(1000, func() { mx.Observe(uint64(v)%64, v); v++ }); a != 0 {
		t.Fatalf("Observe allocated %v times per op", a)
	}
}

func TestRegistrySnapshotAndPromIncludeTopK(t *testing.T) {
	r := New()
	tk := r.TopK("netstate.hotspots.link_rejections", 4, TopKSum)
	tk.SetLabeler(func(key uint64) string { return "link" })
	tk.Add(12, 3)

	snap := r.Snapshot()
	got, ok := snap.TopK["netstate.hotspots.link_rejections"]
	if !ok || got.Total != 3 || got.Entries[0].Label != "link" {
		t.Fatalf("registry snapshot topk = %+v", snap.TopK)
	}
	if New().Snapshot().TopK != nil {
		t.Fatal("registry without trackers must snapshot nil topk")
	}

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	for _, want := range []string{
		"# TYPE netstate_hotspots_link_rejections gauge",
		`netstate_hotspots_link_rejections{entity="link"} 3`,
		"netstate_hotspots_link_rejections_total 3",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom output missing %q in:\n%s", want, prom)
		}
	}
}

func TestReportCarriesHotspots(t *testing.T) {
	r := New()
	r.TopK("sim.hotspots.src_rejected", 4, TopKSum).Add(42, 2)
	rep := NewReport("test")
	rep.Finish(r)
	if rep.Version != 5 {
		t.Fatalf("report version = %d, want 5", rep.Version)
	}
	tk, ok := rep.Observability.TopK["sim.hotspots.src_rejected"]
	if !ok || tk.Total != 2 {
		t.Fatalf("report topk = %+v", rep.Observability.TopK)
	}

	// Round-trips through the writer/reader pair.
	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Observability.TopK["sim.hotspots.src_rejected"].Total != 2 {
		t.Fatalf("round-tripped topk = %+v", back.Observability.TopK)
	}
}

func TestDebugMuxMetricsJSONTopK(t *testing.T) {
	r := New()
	r.TopK("hot", 4, TopKSum).Add(1, 5)
	rec := get(t, NewDebugMux(r), "/metrics.json")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var snap RegistrySnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if tk := snap.TopK["hot"]; tk.Total != 5 || tk.K != 4 || tk.Mode != "sum" || len(tk.Entries) != 1 {
		t.Fatalf("topk section = %+v", snap.TopK)
	}
}
