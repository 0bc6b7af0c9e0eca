package scenario

import (
	"container/heap"
	"math"
	"strings"
	"testing"
)

// erlangBRecurrence is the textbook recurrence
// B(0) = 1, B(k) = E·B(k−1) / (k + E·B(k−1)) — an independent
// cross-check of the log-space form.
func erlangBRecurrence(servers int, erlangs float64) float64 {
	b := 1.0
	for k := 1; k <= servers; k++ {
		b = erlangs * b / (float64(k) + erlangs*b)
	}
	return b
}

func TestErlangBKnownValues(t *testing.T) {
	cases := []struct {
		servers int
		erlangs float64
		want    float64
	}{
		{1, 1, 0.5},
		{2, 1, 0.2},
		{2, 2, 0.4},
		{5, 3, 0.11005},
	}
	for _, tc := range cases {
		got := ErlangB(tc.servers, tc.erlangs)
		if math.Abs(got-tc.want) > 1e-4 {
			t.Errorf("ErlangB(%d, %v) = %v, want %v", tc.servers, tc.erlangs, got, tc.want)
		}
	}
}

func TestErlangBMatchesRecurrence(t *testing.T) {
	for _, servers := range []int{1, 10, 50, 200, 500} {
		for _, erlangs := range []float64{0.5, 5, 50, 300} {
			got := ErlangB(servers, erlangs)
			want := erlangBRecurrence(servers, erlangs)
			if math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Errorf("ErlangB(%d, %v) = %v, recurrence %v", servers, erlangs, got, want)
			}
			if got < 0 || got > 1 || math.IsNaN(got) {
				t.Errorf("ErlangB(%d, %v) = %v outside [0,1]", servers, erlangs, got)
			}
		}
	}
}

func TestErlangBEdgeCases(t *testing.T) {
	if got := ErlangB(0, 5); got != 1 {
		t.Errorf("zero servers: %v, want 1", got)
	}
	if got := ErlangB(5, 0); got != 0 {
		t.Errorf("zero load: %v, want 0", got)
	}
}

// singleBottleneckSpec is a stationary Poisson spec suitable for
// Erlang-B validation: λ = 5/slot, holds uniform on [1,3] slots
// (mean 2), so the offered load is 10 erlangs.
func singleBottleneckSpec(horizon int) Spec {
	return Spec{
		Version: SpecVersion,
		Name:    "erlangb",
		Seed:    3,
		Horizon: horizon,
		Classes: []Class{{
			Name:    "calls",
			Arrival: ArrivalSpec{Process: ProcessPoisson, RatePerSlot: 5},
			Mix: MixSpec{
				MinDurationSlots: 1, MaxDurationSlots: 3,
				MinRateMbps: 500, MaxRateMbps: 2000, MeanRateMbps: 1250,
				Valuation: 1e8,
			},
		}},
	}
}

// TestValidateErlangBConverges is the acceptance-criteria check: the
// measured blocking of the generator-driven loss simulation lands
// inside the documented tolerance of the closed form, across seeds.
func TestValidateErlangBConverges(t *testing.T) {
	b := testBinding(4000)
	for seed := int64(1); seed <= 3; seed++ {
		spec := singleBottleneckSpec(4000)
		spec.Seed = seed
		rep, err := ValidateErlangB(spec, b, 12)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OfferedErlangs != 10 {
			t.Fatalf("offered %v erlangs, want 10", rep.OfferedErlangs)
		}
		want := erlangBRecurrence(12, 10)
		if math.Abs(rep.Analytic-want) > 1e-9 {
			t.Fatalf("analytic %v, want %v", rep.Analytic, want)
		}
		if !rep.Pass {
			t.Fatalf("seed %d: measured %v vs analytic %v exceeds tolerance %v (n=%d)",
				seed, rep.Measured, rep.Analytic, rep.Tolerance, rep.Arrivals)
		}
	}
}

// TestValidateErlangBInsensitivity: with a different holding range of
// the same mean, the blocking must not move (M/G/m/m insensitivity) —
// this is what justifies comparing uniform holds to the formula.
func TestValidateErlangBInsensitivity(t *testing.T) {
	b := testBinding(4000)
	spec := singleBottleneckSpec(4000)
	spec.Classes[0].Mix.MinDurationSlots = 2
	spec.Classes[0].Mix.MaxDurationSlots = 2
	rep, err := ValidateErlangB(spec, b, 12)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OfferedErlangs != 10 || !rep.Pass {
		t.Fatalf("deterministic holds: %+v", rep)
	}
}

func TestValidateErlangBRejectsNonStationary(t *testing.T) {
	b := testBinding(500)

	spec := singleBottleneckSpec(500)
	spec.Classes[0].Arrival = ArrivalSpec{Process: ProcessGamma, RatePerSlot: 5, Shape: 2}
	if _, err := ValidateErlangB(spec, b, 10); err == nil || !strings.Contains(err.Error(), "poisson") {
		t.Fatalf("gamma arrivals accepted: %v", err)
	}

	spec = singleBottleneckSpec(500)
	spec.Classes[0].Diurnal = &DiurnalSpec{PeriodSlots: 96, Amplitude: 0.3}
	if _, err := ValidateErlangB(spec, b, 10); err == nil || !strings.Contains(err.Error(), "diurnal") {
		t.Fatalf("diurnal accepted: %v", err)
	}

	spec = singleBottleneckSpec(500)
	spec.Events = []Event{{Kind: EventFlashCrowd, StartSlot: 10, EndSlot: 20, Factor: 2}}
	if _, err := ValidateErlangB(spec, b, 10); err == nil || !strings.Contains(err.Error(), "events") {
		t.Fatalf("events accepted: %v", err)
	}

	if _, err := ValidateErlangB(singleBottleneckSpec(500), b, 0); err == nil {
		t.Fatal("zero servers accepted")
	}
}

func TestErlangBReportString(t *testing.T) {
	rep := ErlangBReport{Servers: 12, OfferedErlangs: 10, Analytic: 0.12, Measured: 0.118,
		Arrivals: 18000, Tolerance: 0.015, Pass: true}
	s := rep.String()
	if !strings.Contains(s, "PASS") || !strings.Contains(s, "servers=12") {
		t.Fatalf("report string %q", s)
	}
}

func TestBusyHeap(t *testing.T) {
	h := &busyHeap{}
	for _, v := range []float64{5, 1, 4, 2, 3} {
		heap.Push(h, v)
	}
	for want := 1.0; want <= 5; want++ {
		if got := heap.Pop(h); got != want {
			t.Fatalf("pop %v, want %v", got, want)
		}
	}
}
