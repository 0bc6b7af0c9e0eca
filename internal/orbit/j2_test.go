package orbit

import (
	"math"
	"testing"
	"time"

	"spacebooking/internal/geo"
)

// First-order J2 secular drift. The propagator is two-body on purpose;
// these rates exist to show, in TestJ2DriftNegligibleOverPaperHorizon,
// that the drift it leaves out is negligible over the paper's horizon.

// j2 is the Earth's dominant oblateness coefficient.
const j2 = 1.08262668e-3

// j2Rates returns the secular drift rates caused by Earth oblateness, in
// radians per second: nodal regression (RAAN), apsidal rotation
// (argument of perigee) and the mean-anomaly rate correction. These are
// the standard first-order secular expressions; short-period J2
// oscillations are not modelled.
func (e Elements) j2Rates() (raanDot, argpDot, meanAnomalyDot float64) {
	a := e.SemiMajorKm
	ecc := e.Eccentricity
	inc := geo.DegToRad(e.InclinationDeg)
	n := e.MeanMotionRadS()
	p := a * (1 - ecc*ecc)
	factor := 1.5 * j2 * n * (geo.EarthRadiusKm / p) * (geo.EarthRadiusKm / p)
	cosI := math.Cos(inc)
	sinI2 := math.Sin(inc) * math.Sin(inc)

	raanDot = -factor * cosI
	argpDot = factor * (2 - 2.5*sinI2)
	meanAnomalyDot = factor * math.Sqrt(1-ecc*ecc) * (1 - 1.5*sinI2)
	return raanDot, argpDot, meanAnomalyDot
}

// atEpochJ2 returns a copy of the elements advanced to newEpoch with J2
// secular drift applied to RAAN, argument of perigee and mean anomaly.
// Use it to re-anchor a constellation for simulations that span days —
// within the paper's 384-minute horizon the drift is negligible (<1.4°
// of RAAN for the 550 km / 53° shell), which is why the per-slot
// propagator stays two-body.
func (e Elements) atEpochJ2(newEpoch time.Time) Elements {
	dt := newEpoch.Sub(e.Epoch).Seconds()
	raanDot, argpDot, maDot := e.j2Rates()

	out := e
	out.Epoch = newEpoch
	out.RAANDeg = geo.RadToDeg(geo.WrapTwoPi(geo.DegToRad(e.RAANDeg) + raanDot*dt))
	out.ArgPerigeeDeg = geo.RadToDeg(geo.WrapTwoPi(geo.DegToRad(e.ArgPerigeeDeg) + argpDot*dt))
	out.MeanAnomalyDeg = geo.RadToDeg(geo.WrapTwoPi(
		geo.DegToRad(e.MeanAnomalyDeg) + (e.MeanMotionRadS()+maDot)*dt))
	return out
}

// nodalPrecessionDegPerDay returns the RAAN drift in degrees per day —
// the quantity mission designers quote (a sun-synchronous orbit needs
// +0.9856°/day).
func (e Elements) nodalPrecessionDegPerDay() float64 {
	raanDot, _, _ := e.j2Rates()
	return geo.RadToDeg(raanDot) * 86400
}

func TestNodalPrecessionKnownValues(t *testing.T) {
	tests := []struct {
		name    string
		altKm   float64
		incDeg  float64
		wantDeg float64 // degrees/day
		tol     float64
	}{
		// Classic textbook values.
		{"ISS-like (400 km, 51.6°)", 400, 51.6, -4.98, 0.15},
		{"Starlink shell (550 km, 53°)", 550, 53, -4.6, 0.2},
		{"polar (800 km, 90°)", 800, 90, 0, 1e-9},
		// Sun-synchronous: designed for +0.9856°/day.
		{"SSO (500 km)", 500, ssoInclinationDeg(500), 0.9856, 0.02},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := Elements{
				SemiMajorKm:    geo.EarthRadiusKm + tt.altKm,
				InclinationDeg: tt.incDeg,
				Epoch:          testEpoch,
			}
			got := e.nodalPrecessionDegPerDay()
			if math.Abs(got-tt.wantDeg) > tt.tol {
				t.Errorf("precession = %v deg/day, want %v ± %v", got, tt.wantDeg, tt.tol)
			}
		})
	}
}

func TestJ2RatesSigns(t *testing.T) {
	// Prograde orbits regress (negative RAAN rate); retrograde orbits
	// precess forward. Apsidal rotation is positive below the critical
	// inclination (63.4°) and negative above it.
	prograde := Elements{SemiMajorKm: 7000, InclinationDeg: 30, Epoch: testEpoch}
	retrograde := Elements{SemiMajorKm: 7000, InclinationDeg: 120, Epoch: testEpoch}
	raanP, argpP, maP := prograde.j2Rates()
	raanR, _, _ := retrograde.j2Rates()
	if raanP >= 0 {
		t.Errorf("prograde RAAN rate = %v, want negative", raanP)
	}
	if raanR <= 0 {
		t.Errorf("retrograde RAAN rate = %v, want positive", raanR)
	}
	if argpP <= 0 {
		t.Errorf("apsidal rate below critical inclination = %v, want positive", argpP)
	}
	if maP <= 0 {
		t.Errorf("mean anomaly correction = %v, want positive at low inclination", maP)
	}
	critical := Elements{SemiMajorKm: 7000, InclinationDeg: 63.4349, Epoch: testEpoch}
	if _, argpC, _ := critical.j2Rates(); math.Abs(argpC) > 1e-9 {
		t.Errorf("apsidal rate at the critical inclination = %v, want ~0", argpC)
	}
}

func TestAtEpochJ2(t *testing.T) {
	e := circular550(53, 100, 0)
	oneDay := e.atEpochJ2(testEpoch.Add(24 * time.Hour))
	if oneDay.Epoch != testEpoch.Add(24*time.Hour) {
		t.Error("epoch not advanced")
	}
	drift := oneDay.RAANDeg - e.RAANDeg
	// ~-4.6 degrees of nodal regression per day (mod 360).
	if drift > 0 {
		drift -= 360
	}
	if math.Abs(drift-e.nodalPrecessionDegPerDay()) > 0.01 {
		t.Errorf("RAAN drift = %v, want %v", drift, e.nodalPrecessionDegPerDay())
	}
	// Inclination, shape and size are untouched by secular J2.
	if oneDay.SemiMajorKm != e.SemiMajorKm || oneDay.InclinationDeg != e.InclinationDeg ||
		oneDay.Eccentricity != e.Eccentricity {
		t.Error("J2 secular drift must not change a, e, i")
	}
	// Zero elapsed time is the identity (modulo angle wrapping).
	same := e.atEpochJ2(testEpoch)
	if math.Abs(same.RAANDeg-e.RAANDeg) > 1e-9 {
		t.Errorf("zero-dt advance changed RAAN: %v -> %v", e.RAANDeg, same.RAANDeg)
	}
}

func TestJ2DriftNegligibleOverPaperHorizon(t *testing.T) {
	// The design claim in the propagator doc: < 1.4° RAAN drift over the
	// 384-minute evaluation horizon for the Starlink shell.
	e := circular550(53, 0, 0)
	drifted := e.atEpochJ2(testEpoch.Add(384 * time.Minute))
	drift := math.Abs(drifted.RAANDeg - 0)
	if drift > 360-1.4 {
		drift = 360 - drift
	}
	if drift > 1.4 {
		t.Errorf("RAAN drift over 384 min = %v°, design doc claims < 1.4°", drift)
	}
}
