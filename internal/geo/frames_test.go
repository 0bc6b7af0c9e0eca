package geo

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestJulianDate(t *testing.T) {
	tests := []struct {
		name string
		t    time.Time
		want float64
	}{
		{"J2000", J2000, 2451545.0},
		{"J2000 plus one day", J2000.Add(24 * time.Hour), 2451546.0},
		{"J2000 minus half day", J2000.Add(-12 * time.Hour), 2451544.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := JulianDate(tt.t); !almostEqual(got, tt.want, 1e-9) {
				t.Errorf("JulianDate = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestGMSTRange(t *testing.T) {
	// GMST must always be within [0, 2π).
	base := time.Date(2026, time.March, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1000; i++ {
		g := GMST(base.Add(time.Duration(i) * 37 * time.Minute))
		if g < 0 || g >= 2*math.Pi {
			t.Fatalf("GMST out of range: %v", g)
		}
	}
}

func TestGMSTAdvancesSidereally(t *testing.T) {
	// Over one solar day GMST advances by ~0.9856° more than a full turn.
	t0 := time.Date(2026, time.July, 5, 0, 0, 0, 0, time.UTC)
	g0 := GMST(t0)
	g1 := GMST(t0.Add(24 * time.Hour))
	diff := WrapTwoPi(g1 - g0)
	wantDeg := 0.9856
	if !almostEqual(RadToDeg(diff), wantDeg, 0.01) {
		t.Errorf("daily GMST advance = %v deg, want ~%v", RadToDeg(diff), wantDeg)
	}
}

func TestECIECEFRoundTrip(t *testing.T) {
	f := func(x, y, z, gmst float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 1e5)
		}
		v := Vec3{clamp(x), clamp(y), clamp(z)}
		g := math.Mod(clamp(gmst), 2*math.Pi)
		back := NewRotation(g).Z(EarthRotation(g).Z(v))
		return vecAlmostEqual(v, back, 1e-6*(1+v.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLLAToECEFKnownPoints(t *testing.T) {
	tests := []struct {
		name string
		lla  LLA
		want Vec3
		tol  float64
	}{
		{
			name: "equator prime meridian",
			lla:  LLA{0, 0, 0},
			want: Vec3{EarthRadiusKm, 0, 0},
			tol:  1e-6,
		},
		{
			name: "north pole",
			lla:  LLA{90, 0, 0},
			// Polar radius = a(1-f).
			want: Vec3{0, 0, EarthRadiusKm * (1 - EarthFlattening)},
			tol:  1e-6,
		},
		{
			name: "equator 90E at 550km",
			lla:  LLA{0, 90, 550},
			want: Vec3{0, EarthRadiusKm + 550, 0},
			tol:  1e-6,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := LLAToECEF(tt.lla)
			if !vecAlmostEqual(got, tt.want, tt.tol) {
				t.Errorf("LLAToECEF = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestLLARoundTrip(t *testing.T) {
	f := func(lat, lon, alt float64) bool {
		la := math.Mod(math.Abs(lat), 89) // avoid pole longitude degeneracy
		lo := math.Mod(lon, 179.9)
		al := math.Mod(math.Abs(alt), 2000)
		if math.IsNaN(la) || math.IsNaN(lo) || math.IsNaN(al) {
			return true
		}
		p := LLA{la, lo, al}
		back := ECEFToLLA(LLAToECEF(p))
		return almostEqual(back.LatDeg, p.LatDeg, 1e-6) &&
			almostEqual(back.LonDeg, p.LonDeg, 1e-6) &&
			almostEqual(back.AltKm, p.AltKm, 1e-5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestElevationDeg(t *testing.T) {
	observer := LLAToECEF(LLA{0, 0, 0})
	tests := []struct {
		name   string
		target Vec3
		want   float64
		tol    float64
	}{
		{"zenith", LLAToECEF(LLA{0, 0, 550}), 90, 1e-6},
		{"same point", observer, -90, 1e-9},
		{"nadir", Vec3{}, -90, 1e-6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ElevationDeg(observer, tt.target); !almostEqual(got, tt.want, tt.tol) {
				t.Errorf("ElevationDeg = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestElevationHorizonSatellite(t *testing.T) {
	// A satellite at 550 km seen from a ground point 90° of arc away is
	// well below the horizon.
	observer := LLAToECEF(LLA{0, 0, 0})
	sat := LLAToECEF(LLA{0, 90, 550})
	if el := ElevationDeg(observer, sat); el >= 0 {
		t.Errorf("satellite over the horizon should have negative elevation, got %v", el)
	}
	// Directly overhead minus a few degrees of arc it is high in the sky.
	near := LLAToECEF(LLA{0, 2, 550})
	if el := ElevationDeg(observer, near); el < 60 {
		t.Errorf("nearly-overhead satellite elevation = %v, want > 60", el)
	}
}

func TestGreatCircleKm(t *testing.T) {
	tests := []struct {
		name string
		a, b LLA
		want float64
		tol  float64
	}{
		{"same point", LLA{10, 20, 0}, LLA{10, 20, 0}, 0, 1e-9},
		{"quarter circumference", LLA{0, 0, 0}, LLA{0, 90, 0}, math.Pi / 2 * EarthRadiusKm, 1e-6},
		{"pole to equator", LLA{90, 0, 0}, LLA{0, 0, 0}, math.Pi / 2 * EarthRadiusKm, 1e-6},
		{"antipodal", LLA{0, 0, 0}, LLA{0, 180, 0}, math.Pi * EarthRadiusKm, 1e-6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := GreatCircleKm(tt.a, tt.b); !almostEqual(got, tt.want, tt.tol) {
				t.Errorf("GreatCircleKm = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestLineOfSightClear(t *testing.T) {
	altKm := 550.0
	a := Vec3{EarthRadiusKm + altKm, 0, 0}
	b := Vec3{-(EarthRadiusKm + altKm), 0, 0} // antipodal: segment passes through Earth's centre
	if LineOfSightClear(a, b, 0) {
		t.Error("antipodal satellites should not have line of sight")
	}
	c := Vec3{0, EarthRadiusKm + altKm, 0} // 90° apart: chord clears surface? chord midpoint at r/√2 < R, blocked
	if LineOfSightClear(a, c, 0) {
		t.Error("90-degree-separated LEO satellites should be blocked by the Earth")
	}
	// Neighbouring satellites 10° apart see each other.
	d := NewRotation(DegToRad(10)).Z(a)
	if !LineOfSightClear(a, d, 0) {
		t.Error("10-degree-separated satellites should have line of sight")
	}
	// Degenerate: same position, above the surface.
	if !LineOfSightClear(a, a, 0) {
		t.Error("coincident orbital points should be clear")
	}
}

func TestGMSTReferenceValue(t *testing.T) {
	// At the J2000 epoch (2000-01-01 12:00 UT) GMST is 280.4606 degrees
	// (Astronomical Almanac). Our truncated IAU-82 series should land
	// within a few hundredths of a degree.
	got := RadToDeg(GMST(J2000))
	if !almostEqual(got, 280.4606, 0.05) {
		t.Errorf("GMST(J2000) = %v deg, want ~280.46", got)
	}
}
