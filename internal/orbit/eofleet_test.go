package orbit

import (
	"testing"

	"spacebooking/internal/geo"
)

func TestSyntheticEOFleetProperties(t *testing.T) {
	cfg := DefaultEOFleetConfig(testEpoch)
	fleet, err := SyntheticEOFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 223 {
		t.Fatalf("fleet size = %d, want 223", len(fleet))
	}
	for _, s := range fleet {
		alt := s.Elements.SemiMajorKm - geo.EarthRadiusKm
		if alt < 475 || alt > 525 {
			t.Errorf("%s altitude %v outside [475,525]", s.Name, alt)
		}
		// Sun-synchronous inclinations at these altitudes are ~97.2-97.5°.
		if s.Elements.InclinationDeg < 96.5 || s.Elements.InclinationDeg > 98.5 {
			t.Errorf("%s inclination %v not sun-synchronous", s.Name, s.Elements.InclinationDeg)
		}
		// Near-circular: the generator draws e from [0, 2e-4).
		if e := s.Elements.Eccentricity; !(e >= 0 && e < 2e-4) {
			t.Errorf("%s eccentricity %v outside [0, 2e-4)", s.Name, e)
		}
		if !s.Elements.Epoch.Equal(testEpoch) {
			t.Errorf("%s epoch %v, want %v", s.Name, s.Elements.Epoch, testEpoch)
		}
	}
}

func TestSyntheticEOFleetDeterministic(t *testing.T) {
	cfg := DefaultEOFleetConfig(testEpoch)
	a, err := SyntheticEOFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticEOFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Elements != b[i].Elements {
			t.Fatalf("fleet not deterministic at index %d", i)
		}
	}
}

func TestSyntheticEOFleetConfigErrors(t *testing.T) {
	tests := []struct {
		name string
		cfg  EOFleetConfig
	}{
		{"zero count", EOFleetConfig{Count: 0, MinAltitudeKm: 475, MaxAltitudeKm: 525, Epoch: testEpoch}},
		{"inverted band", EOFleetConfig{Count: 5, MinAltitudeKm: 525, MaxAltitudeKm: 475, Epoch: testEpoch}},
		{"zero epoch", EOFleetConfig{Count: 5, MinAltitudeKm: 475, MaxAltitudeKm: 525}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := SyntheticEOFleet(tt.cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestSSOInclinationMonotonic(t *testing.T) {
	// SSO inclination grows with altitude in the LEO band.
	last := 0.0
	for alt := 400.0; alt <= 800; alt += 50 {
		inc := ssoInclinationDeg(alt)
		if inc <= last {
			t.Fatalf("SSO inclination not increasing at %v km: %v <= %v", alt, inc, last)
		}
		last = inc
	}
}
