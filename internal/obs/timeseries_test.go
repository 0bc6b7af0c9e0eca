package obs

import (
	"sync"
	"testing"
)

func TestSeriesRecordAndSnapshot(t *testing.T) {
	r := New()
	sp := r.Sampler(4)
	s := sp.Series("slot.accepted")
	if sp.Series("slot.accepted") != s {
		t.Fatal("same name should return the same series")
	}
	for i := 0; i < 3; i++ {
		s.Record(int64(i), float64(10*i))
	}
	snap := s.Snapshot()
	if snap.Capacity != 4 || snap.Total != 3 {
		t.Fatalf("snapshot header = %+v", snap)
	}
	if len(snap.Slots) != 3 || snap.Slots[0] != 0 || snap.Slots[2] != 2 {
		t.Fatalf("slots = %v", snap.Slots)
	}
	if snap.Values[1] != 10 || snap.Last() != 20 {
		t.Fatalf("values = %v, last %v", snap.Values, snap.Last())
	}
}

func TestSeriesRingOverwrite(t *testing.T) {
	s := newSeries(3)
	for i := 0; i < 7; i++ {
		s.Record(int64(i), float64(i))
	}
	snap := s.Snapshot()
	if snap.Total != 7 || len(snap.Slots) != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Retains the newest three samples, oldest first.
	want := []int64{4, 5, 6}
	for i, w := range want {
		if snap.Slots[i] != w || snap.Values[i] != float64(w) {
			t.Fatalf("retained = %v/%v, want slots %v", snap.Slots, snap.Values, want)
		}
	}
	if len(snap.Slots) != 3 || snap.Total != 7 {
		t.Fatalf("len/total = %d/%d", len(snap.Slots), snap.Total)
	}
}

// TestSeriesExactlyFull pins the boundary the ring is most likely to
// get wrong: exactly capacity samples recorded, so head has wrapped to
// zero but nothing has been dropped yet. Every sample must come back,
// oldest first, and the very next Record must overwrite only the oldest.
func TestSeriesExactlyFull(t *testing.T) {
	s := newSeries(4)
	for i := 0; i < 4; i++ {
		s.Record(int64(i), float64(100+i))
	}
	snap := s.Snapshot()
	if snap.Total != 4 || len(snap.Slots) != 4 {
		t.Fatalf("exactly-full snapshot = %+v", snap)
	}
	for i := 0; i < 4; i++ {
		if snap.Slots[i] != int64(i) || snap.Values[i] != float64(100+i) {
			t.Fatalf("exactly-full retained = %v/%v, want 0..3 in order", snap.Slots, snap.Values)
		}
	}
	if snap.Last() != 103 {
		t.Fatalf("last = %v, want 103", snap.Last())
	}
	// One more sample: slot 0 drops, 1..4 remain, still oldest first.
	s.Record(4, 104)
	snap = s.Snapshot()
	if snap.Total != 5 || len(snap.Slots) != 4 || snap.Slots[0] != 1 || snap.Slots[3] != 4 {
		t.Fatalf("post-wrap snapshot = %+v", snap)
	}
}

func TestNilSamplerAndSeries(t *testing.T) {
	var r *Registry
	sp := r.Sampler(16)
	if sp != nil {
		t.Fatal("nil registry must hand out a nil sampler")
	}
	s := sp.Series("x")
	s.Record(1, 2)
	if got := s.Snapshot(); got.Capacity != 0 || got.Total != 0 {
		t.Fatalf("nil series snapshot = %+v", got)
	}
	if sp.Snapshot() != nil {
		t.Fatal("nil sampler snapshot must be nil")
	}
	if (SeriesSnapshot{}).Last() != 0 {
		t.Fatal("empty snapshot Last must be 0")
	}
}

func TestSamplerCapacityFixedAtCreation(t *testing.T) {
	r := New()
	sp := r.Sampler(2)
	if r.Sampler(999) != sp {
		t.Fatal("second Sampler call must reuse the first sampler")
	}
	if got := sp.Series("a").Snapshot().Capacity; got != 2 {
		t.Fatalf("capacity = %d, want 2", got)
	}
	if got := New().Sampler(0).Series("b").Snapshot().Capacity; got != DefaultSeriesCapacity {
		t.Fatalf("default capacity = %d, want %d", got, DefaultSeriesCapacity)
	}
}

func TestRegistrySnapshotIncludesTimeSeries(t *testing.T) {
	r := New()
	r.Sampler(8).Series("slot.revenue_cum").Record(0, 1.5)
	snap := r.Snapshot()
	ts, ok := snap.TimeSeries["slot.revenue_cum"]
	if !ok || ts.Last() != 1.5 {
		t.Fatalf("snapshot timeseries = %+v", snap.TimeSeries)
	}
	if New().Snapshot().TimeSeries != nil {
		t.Fatal("registry without series must snapshot nil timeseries")
	}
}

// TestSeriesRecordAllocs is the acceptance check that per-slot sampling
// is allocation-free on the hot path.
func TestSeriesRecordAllocs(t *testing.T) {
	r := New()
	sp := r.Sampler(64)
	a, b := sp.Series("slot.accepted"), sp.Series("slot.wall_seconds")
	g := r.Gauge("netstate.depleted_sats")
	slot := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		a.Record(slot, 1)
		b.Record(slot, 0.25)
		g.Set(3)
		slot++
	})
	if allocs != 0 {
		t.Fatalf("per-slot sampling allocated %v times per slot, want 0", allocs)
	}
	// The disabled (nil) path must also stay allocation-free.
	var nilSeries *Series
	allocs = testing.AllocsPerRun(1000, func() { nilSeries.Record(1, 2) })
	if allocs != 0 {
		t.Fatalf("nil series allocated %v times per record, want 0", allocs)
	}
}

// BenchmarkSeriesRecord proves the per-slot hot path is allocation-free
// at benchmark rigor (run with -benchmem: 0 allocs/op).
func BenchmarkSeriesRecord(b *testing.B) {
	r := New()
	s := r.Sampler(4096).Series("slot.accepted")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Record(int64(i), float64(i))
	}
	if testing.AllocsPerRun(100, func() { s.Record(1, 1) }) != 0 {
		b.Fatal("Record allocated")
	}
}

// TestSeriesConcurrent exercises Record against Snapshot under -race.
func TestSeriesConcurrent(t *testing.T) {
	r := New()
	sp := r.Sampler(128)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := sp.Series("shared")
			for i := 0; i < 500; i++ {
				s.Record(int64(i), float64(i))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = sp.Snapshot()
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	if got := sp.Series("shared").Snapshot().Total; got != 4*500 {
		t.Fatalf("total = %d, want %d", got, 4*500)
	}
}
