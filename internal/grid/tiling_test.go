package grid

import (
	"math"
	"testing"

	"spacebooking/internal/geo"
)

func TestTriangularSitesCounts(t *testing.T) {
	tests := []struct {
		subdivisions int
		want         int
	}{
		{0, 20},
		{1, 80},
		{2, 320},
		{3, 1280},
		{5, 20480},
	}
	for _, tt := range tests {
		sites, err := TriangularSites(tt.subdivisions)
		if err != nil {
			t.Fatalf("subdivisions %d: %v", tt.subdivisions, err)
		}
		if len(sites) != tt.want {
			t.Errorf("subdivisions %d: got %d sites, want %d", tt.subdivisions, len(sites), tt.want)
		}
	}
}

func TestTriangularSitesInvalidSubdivisions(t *testing.T) {
	for _, s := range []int{-1, 9} {
		if _, err := TriangularSites(s); err == nil {
			t.Errorf("subdivisions %d: expected error", s)
		}
	}
}

func TestTriangularSitesValidCoordinates(t *testing.T) {
	sites, err := TriangularSites(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		if s.LatDeg < -90 || s.LatDeg > 90 {
			t.Fatalf("site %d latitude %v out of range", s.ID, s.LatDeg)
		}
		if s.LonDeg < -180 || s.LonDeg > 180 {
			t.Fatalf("site %d longitude %v out of range", s.ID, s.LonDeg)
		}
	}
}

func TestTriangularSitesRoughlyUniform(t *testing.T) {
	// Centroids of an icosphere tiling are nearly uniform over the
	// sphere; the fraction with |lat| < 30° should be close to the area
	// fraction sin(30°) = 0.5.
	sites, err := TriangularSites(4)
	if err != nil {
		t.Fatal(err)
	}
	low := 0
	for _, s := range sites {
		if math.Abs(s.LatDeg) < 30 {
			low++
		}
	}
	frac := float64(low) / float64(len(sites))
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("fraction below 30 deg latitude = %v, want ~0.5", frac)
	}
}

func TestTriangularSitesDistinct(t *testing.T) {
	sites, err := TriangularSites(2)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]int]bool, len(sites))
	for _, s := range sites {
		key := [2]int{int(s.LatDeg * 1e6), int(s.LonDeg * 1e6)}
		if seen[key] {
			t.Fatalf("duplicate centroid near (%v, %v)", s.LatDeg, s.LonDeg)
		}
		seen[key] = true
	}
}

func TestGDPDensityPeaksAtCities(t *testing.T) {
	nyc := GDPDensity(40.7, -74.0)
	pacific := GDPDensity(-40, -140) // empty South Pacific
	if nyc <= pacific {
		t.Errorf("GDP density at NYC (%v) should exceed open ocean (%v)", nyc, pacific)
	}
	if pacific > 0.01 {
		t.Errorf("open-ocean GDP density = %v, want ~0", pacific)
	}
	tokyo := GDPDensity(35.7, 139.7)
	if tokyo <= pacific {
		t.Errorf("GDP density at Tokyo (%v) should exceed open ocean (%v)", tokyo, pacific)
	}
}

// TestGDPDensityMatchesGreatCircleFormula: scoring against the prepared
// centre table gives the same bits as the great-circle formula evaluated
// from degrees for every pair, on the medium- and paper-scale tilings.
func TestGDPDensityMatchesGreatCircleFormula(t *testing.T) {
	greatCircleKm := func(a, b geo.LLA) float64 {
		la1, lo1 := geo.DegToRad(a.LatDeg), geo.DegToRad(a.LonDeg)
		la2, lo2 := geo.DegToRad(b.LatDeg), geo.DegToRad(b.LonDeg)
		sinDLat := math.Sin((la2 - la1) / 2)
		sinDLon := math.Sin((lo2 - lo1) / 2)
		h := sinDLat*sinDLat + math.Cos(la1)*math.Cos(la2)*sinDLon*sinDLon
		return 2 * geo.EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
	}
	for _, subdivisions := range []int{4, 5} {
		sites, err := TriangularSites(subdivisions)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sites {
			want := 0.0
			for _, c := range economicCenters {
				d := greatCircleKm(s.LLA(), geo.LLA{LatDeg: c.latDeg, LonDeg: c.lonDeg})
				want += c.weight * math.Exp(-d*d/(2*c.spread*c.spread))
			}
			if got := GDPDensity(s.LatDeg, s.LonDeg); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d subdivisions, site %d: GDPDensity %v, formula %v", subdivisions, s.ID, got, want)
			}
		}
	}
}

func TestFilterByGDP(t *testing.T) {
	sites, err := TriangularSites(4)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := FilterByGDP(sites, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 100 {
		t.Fatalf("kept %d, want 100", len(kept))
	}
	// Weights must be non-increasing and IDs dense.
	for i := range kept {
		if kept[i].ID != i {
			t.Errorf("site %d has ID %d", i, kept[i].ID)
		}
		if i > 0 && kept[i].Weight > kept[i-1].Weight {
			t.Errorf("weights not sorted at %d: %v > %v", i, kept[i].Weight, kept[i-1].Weight)
		}
	}
	// Every kept site should be on or near an economic land mass: its
	// weight must exceed the open-ocean background.
	background := GDPDensity(-40, -140)
	if kept[len(kept)-1].Weight <= background {
		t.Errorf("lowest kept weight %v not above ocean background %v", kept[len(kept)-1].Weight, background)
	}
}

func TestFilterByGDPErrors(t *testing.T) {
	sites, err := TriangularSites(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FilterByGDP(sites, 0); err == nil {
		t.Error("keep=0: expected error")
	}
	if _, err := FilterByGDP(sites, len(sites)+1); err == nil {
		t.Error("keep>len: expected error")
	}
}

func TestFilterByGDPDoesNotMutateInput(t *testing.T) {
	sites, err := TriangularSites(2)
	if err != nil {
		t.Fatal(err)
	}
	origFirst := sites[0]
	if _, err := FilterByGDP(sites, 10); err != nil {
		t.Fatal(err)
	}
	if sites[0] != origFirst {
		t.Error("FilterByGDP mutated its input slice")
	}
}

func TestPaperSites(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale tiling in -short mode")
	}
	// The paper-scale site set as NewEnvironment builds it: the triangular
	// tiling filtered down to 1761 GDP-weighted locations.
	all, err := TriangularSites(5)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := FilterByGDP(all, 1761)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1761 {
		t.Fatalf("got %d sites, want 1761", len(sites))
	}
	// The busiest site should be near one of the top metros (within a few
	// hundred km of some economic centre).
	top := sites[0]
	minDist := math.Inf(1)
	for _, c := range economicCenters {
		d := geo.GreatCircleKm(top.LLA(), geo.LLA{LatDeg: c.latDeg, LonDeg: c.lonDeg})
		minDist = math.Min(minDist, d)
	}
	if minDist > 500 {
		t.Errorf("top site (%v,%v) is %v km from the nearest economic centre", top.LatDeg, top.LonDeg, minDist)
	}
}

func TestSiteLLA(t *testing.T) {
	s := Site{ID: 3, LatDeg: 12.5, LonDeg: -45.25}
	lla := s.LLA()
	if lla.LatDeg != 12.5 || lla.LonDeg != -45.25 || lla.AltKm != 0 {
		t.Errorf("LLA = %+v", lla)
	}
}
