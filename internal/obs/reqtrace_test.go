package obs

import (
	"testing"
	"time"
)

func TestTraceRecSpans(t *testing.T) {
	epoch := time.Unix(100, 0)
	var rec TraceRec
	rec.Reset(epoch)

	i := rec.Begin("parse", epoch)
	rec.End(i, epoch.Add(2*time.Microsecond))
	j := rec.Begin("queue", epoch.Add(2*time.Microsecond))
	rec.End(j, epoch.Add(10*time.Microsecond))
	rec.Add("search", 10_000, 5_000)

	spans := rec.CopySpans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Name != "parse" || spans[0].StartNs != 0 || spans[0].EndNs != 2000 {
		t.Errorf("parse span = %+v", spans[0])
	}
	if spans[1].Name != "queue" || spans[1].DurNs() != 8000 {
		t.Errorf("queue span = %+v (dur %d)", spans[1], spans[1].DurNs())
	}
	if spans[2].Name != "search" || spans[2].StartNs != 10_000 || spans[2].EndNs != 15_000 {
		t.Errorf("search span = %+v", spans[2])
	}

	rec.Reset(epoch)
	if len(spans) != 3 || spans[0].Name != "parse" {
		t.Errorf("copy not independent of reset: %+v", spans)
	}
	if rec.n != 0 {
		t.Errorf("reset left %d spans", rec.n)
	}
}

func TestTraceRecOpenSpanAndOverflow(t *testing.T) {
	epoch := time.Unix(0, 0)
	var rec TraceRec
	rec.Reset(epoch)
	i := rec.Begin("open", epoch.Add(time.Millisecond))
	spans := rec.spans[:rec.n]
	if spans[0].EndNs != -1 || spans[0].DurNs() != 0 {
		t.Errorf("open span = %+v", spans[0])
	}
	rec.End(i, epoch.Add(2*time.Millisecond))
	// A clock that moves backwards clamps to the epoch instead of
	// recording negative offsets.
	if got := rec.SinceNs(epoch.Add(-time.Second)); got != 0 {
		t.Errorf("SinceNs before epoch = %d, want 0", got)
	}

	for k := 0; k < 2*MaxTraceSpans; k++ {
		rec.Begin("x", epoch)
	}
	if n := rec.n; n != MaxTraceSpans {
		t.Errorf("overflowed recorder has %d spans, want %d", n, MaxTraceSpans)
	}
	if idx := rec.Begin("y", epoch); idx != -1 {
		t.Errorf("full recorder Begin = %d, want -1", idx)
	}
	rec.End(-1, epoch) // must not panic

	var nilRec *TraceRec
	nilRec.Reset(epoch)
	if nilRec.Begin("z", epoch) != -1 || nilRec.CopySpans() != nil {
		t.Error("nil recorder is not a no-op")
	}
}

func TestTracePoolReuse(t *testing.T) {
	tp := NewTracePool()
	epoch := time.Unix(7, 0)
	r := tp.Get(epoch)
	r.Begin("a", epoch)
	tp.Put(r)
	r2 := tp.Get(epoch.Add(time.Second))
	if r2.n != 0 {
		t.Errorf("pooled recorder not reset: %d spans", r2.n)
	}
	if !r2.Epoch().Equal(epoch.Add(time.Second)) {
		t.Errorf("epoch = %v", r2.Epoch())
	}
	tp.Put(nil) // must not panic

	var nilPool *TracePool
	if nilPool.Get(epoch) != nil {
		t.Error("nil pool Get != nil")
	}
}

func TestSamplePolicyHead(t *testing.T) {
	always := SamplePolicy{Rate: 1}
	never := SamplePolicy{Rate: 0}
	for id := uint64(0); id < 100; id++ {
		if !always.SampleHead(id) {
			t.Fatalf("rate 1 skipped id %d", id)
		}
		if never.SampleHead(id) {
			t.Fatalf("rate 0 sampled id %d", id)
		}
	}
	// A fractional rate is deterministic and lands near the target on a
	// large id range.
	p := SamplePolicy{Rate: 0.25}
	hits := 0
	for id := uint64(0); id < 10_000; id++ {
		if p.SampleHead(id) {
			hits++
		}
		if p.SampleHead(id) != p.SampleHead(id) {
			t.Fatal("sampling not deterministic")
		}
	}
	if hits < 2200 || hits > 2800 {
		t.Errorf("rate 0.25 sampled %d of 10000", hits)
	}
}

func TestSamplePolicySlow(t *testing.T) {
	p := SamplePolicy{SlowNs: int64(25 * time.Millisecond)}
	if p.Slow(int64(24 * time.Millisecond)) {
		t.Error("24ms flagged slow")
	}
	if !p.Slow(int64(25 * time.Millisecond)) {
		t.Error("25ms not flagged slow")
	}
	if (SamplePolicy{}).Slow(1 << 60) {
		t.Error("disabled threshold flagged slow")
	}
}
