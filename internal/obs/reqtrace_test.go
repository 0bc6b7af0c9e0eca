package obs

import (
	"testing"
	"time"
)

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
