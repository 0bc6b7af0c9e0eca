package geo

import (
	"math"
	"testing"
	"time"
)

func TestSunDirectionUnitLength(t *testing.T) {
	base := time.Date(2026, time.January, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 366; i++ {
		d := SunDirectionECI(base.AddDate(0, 0, i))
		if !almostEqual(d.Norm(), 1, 1e-12) {
			t.Fatalf("day %d: |sun| = %v, want 1", i, d.Norm())
		}
	}
}

func TestSunDeclinationAtSolstices(t *testing.T) {
	tests := []struct {
		name    string
		t       time.Time
		wantDec float64 // degrees
		tol     float64
	}{
		{"june solstice", time.Date(2026, time.June, 21, 12, 0, 0, 0, time.UTC), 23.44, 0.2},
		{"december solstice", time.Date(2026, time.December, 21, 12, 0, 0, 0, time.UTC), -23.44, 0.2},
		{"march equinox", time.Date(2026, time.March, 20, 12, 0, 0, 0, time.UTC), 0, 0.6},
		{"september equinox", time.Date(2026, time.September, 23, 12, 0, 0, 0, time.UTC), 0, 0.6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := SunDirectionECI(tt.t)
			dec := RadToDeg(math.Asin(d.Z))
			if !almostEqual(dec, tt.wantDec, tt.tol) {
				t.Errorf("declination = %v deg, want %v ± %v", dec, tt.wantDec, tt.tol)
			}
		})
	}
}

func TestInUmbra(t *testing.T) {
	sun := Vec3{1, 0, 0}
	r := EarthRadiusKm + 550
	tests := []struct {
		name string
		pos  Vec3
		want bool
	}{
		{"subsolar", Vec3{r, 0, 0}, false},
		{"anti-solar (deep shadow)", Vec3{-r, 0, 0}, true},
		{"terminator above", Vec3{0, r, 0}, false},
		{"anti-solar offset outside cylinder", Vec3{-1000, EarthRadiusKm + 200, 0}, false},
		{"anti-solar small offset inside cylinder", Vec3{-r, 100, 0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := InUmbra(tt.pos, sun); got != tt.want {
				t.Errorf("InUmbra(%v) = %v, want %v", tt.pos, got, tt.want)
			}
		})
	}
}

func TestUmbraFractionOfCircularOrbit(t *testing.T) {
	// For a 550 km equatorial orbit with the Sun in the orbital plane the
	// eclipsed fraction under the cylindrical model is
	// asin(Re/r)/π ≈ 0.369. Sample the orbit and check.
	sun := Vec3{1, 0, 0}
	r := EarthRadiusKm + 550
	n := 100000
	inShadow := 0
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * float64(i) / float64(n)
		pos := Vec3{r * math.Cos(theta), r * math.Sin(theta), 0}
		if InUmbra(pos, sun) {
			inShadow++
		}
	}
	got := float64(inShadow) / float64(n)
	want := math.Asin(EarthRadiusKm/r) / math.Pi
	if !almostEqual(got, want, 1e-3) {
		t.Errorf("umbra fraction = %v, want %v", got, want)
	}
}

func TestSunRightAscensionAtEquinox(t *testing.T) {
	// At the March equinox the Sun crosses the vernal point: its ECI
	// direction is nearly +X (right ascension ~0).
	d := SunDirectionECI(time.Date(2026, time.March, 20, 14, 46, 0, 0, time.UTC))
	ra := RadToDeg(math.Atan2(d.Y, d.X))
	if math.Abs(ra) > 1.0 {
		t.Errorf("equinox right ascension = %v deg, want ~0", ra)
	}
}
