package grid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spacebooking/internal/geo"
	"spacebooking/internal/pricing"
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
				want += c.weight * pricing.Exp(-d*d/(2*c.spread*c.spread))
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

// referenceSites is the tiling as it was built before faces carried
// their vertices: a shared vertex list, each edge midpoint computed once
// (from the lower-indexed vertex) and found again through a map.
func referenceSites(subdivisions int) []Site {
	phi := (1 + math.Sqrt(5)) / 2
	var verts []geo.Vec3
	for _, v := range []geo.Vec3{
		{X: -1, Y: phi}, {X: 1, Y: phi}, {X: -1, Y: -phi}, {X: 1, Y: -phi},
		{Y: -1, Z: phi}, {Y: 1, Z: phi}, {Y: -1, Z: -phi}, {Y: 1, Z: -phi},
		{X: phi, Z: -1}, {X: phi, Z: 1}, {X: -phi, Z: -1}, {X: -phi, Z: 1},
	} {
		verts = append(verts, v.Unit())
	}
	faces := [][3]int{
		{0, 11, 5}, {0, 5, 1}, {0, 1, 7}, {0, 7, 10}, {0, 10, 11},
		{1, 5, 9}, {5, 11, 4}, {11, 10, 2}, {10, 7, 6}, {7, 1, 8},
		{3, 9, 4}, {3, 4, 2}, {3, 2, 6}, {3, 6, 8}, {3, 8, 9},
		{4, 9, 5}, {2, 4, 11}, {6, 2, 10}, {8, 6, 7}, {9, 8, 1},
	}
	for range subdivisions {
		midpoints := map[[2]int]int{}
		mid := func(a, b int) int {
			if a > b {
				a, b = b, a
			}
			if idx, ok := midpoints[[2]int{a, b}]; ok {
				return idx
			}
			verts = append(verts, verts[a].Add(verts[b]).Unit())
			midpoints[[2]int{a, b}] = len(verts) - 1
			return len(verts) - 1
		}
		var next [][3]int
		for _, f := range faces {
			ab, bc, ca := mid(f[0], f[1]), mid(f[1], f[2]), mid(f[2], f[0])
			next = append(next, [3]int{f[0], ab, ca}, [3]int{f[1], bc, ab}, [3]int{f[2], ca, bc}, [3]int{ab, bc, ca})
		}
		faces = next
	}
	var sites []Site
	for i, f := range faces {
		c := verts[f[0]].Add(verts[f[1]]).Add(verts[f[2]]).Unit()
		sites = append(sites, Site{ID: i, LatDeg: geo.RadToDeg(math.Asin(c.Z)), LonDeg: geo.RadToDeg(math.Atan2(c.Y, c.X))})
	}
	return sites
}

// TestTriangularSitesMatchReference: the map-free subdivision gives the
// same sites, bit for bit, as the shared-vertex one at subdivisions 0–6.
func TestTriangularSitesMatchReference(t *testing.T) {
	for subdivisions := 0; subdivisions <= 6; subdivisions++ {
		got, err := TriangularSites(subdivisions)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceSites(subdivisions)
		if len(got) != len(want) {
			t.Fatalf("%d subdivisions: %d sites, reference %d", subdivisions, len(got), len(want))
		}
		for i := range got {
			if !sameSite(got[i], want[i]) {
				t.Fatalf("%d subdivisions, site %d: %+v, reference %+v", subdivisions, i, got[i], want[i])
			}
		}
	}
}

// sameSite compares two sites field by field, floats by their bits.
func sameSite(a, b Site) bool {
	return a.ID == b.ID &&
		math.Float64bits(a.LatDeg) == math.Float64bits(b.LatDeg) &&
		math.Float64bits(a.LonDeg) == math.Float64bits(b.LonDeg) &&
		math.Float64bits(a.Weight) == math.Float64bits(b.Weight)
}

// unprunedFilter is FilterByGDP without the bound: every site scored,
// every site ranked.
func unprunedFilter(sites []Site, keep int) []Site {
	scored := slices.Clone(sites)
	for i := range scored {
		scored[i].Weight = GDPDensity(scored[i].LatDeg, scored[i].LonDeg)
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Weight != scored[j].Weight {
			return scored[i].Weight > scored[j].Weight
		}
		return scored[i].ID < scored[j].ID
	})
	out := scored[:keep]
	for i := range out {
		out[i].ID = i
	}
	return out
}

func checkFilterMatchesUnpruned(t *testing.T, name string, sites []Site, keep int) int {
	t.Helper()
	got, scored := rankByGDP(sites, keep)
	want := unprunedFilter(sites, keep)
	if len(got) != len(want) {
		t.Fatalf("%s: kept %d, unpruned %d", name, len(got), len(want))
	}
	for i := range got {
		if !sameSite(got[i], want[i]) {
			t.Fatalf("%s, rank %d: %+v, unpruned %+v (%d of %d sites scored)", name, i, got[i], want[i], scored, len(sites))
		}
	}
	return scored
}

// TestFilterByGDPMatchesUnpruned: at the three scale presets' tilings and
// keeps, the pruned ranking equals the unpruned one bit for bit, and at
// every preset it scores at most 30 % of the sites (5 596 of 20 480 lie
// inside some centre's cap at paper scale, 1 402 of 5 120 at the others).
func TestFilterByGDPMatchesUnpruned(t *testing.T) {
	for _, preset := range []struct {
		name               string
		subdivisions, keep int
	}{
		{"small", 4, 60},
		{"medium", 4, 200},
		{"full", 5, 1761},
	} {
		sites, err := TriangularSites(preset.subdivisions)
		if err != nil {
			t.Fatal(err)
		}
		scored := checkFilterMatchesUnpruned(t, preset.name, sites, preset.keep)
		if frac := float64(scored) / float64(len(sites)); frac > 0.30 {
			t.Errorf("%s: scored %d of %d sites (%.3f), want at most 0.30", preset.name, scored, len(sites), frac)
		}
	}
}

// TestFilterByGDPFallsBackToScoringAll: when the sites inside the caps
// are fewer than keep, or their keep-th weight does not beat the far
// bound, every site is scored and the ranking is still exact.
func TestFilterByGDPFallsBackToScoringAll(t *testing.T) {
	sites, err := TriangularSites(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{len(sites) / 2, len(sites)} {
		if scored := checkFilterMatchesUnpruned(t, fmt.Sprintf("keep %d", keep), sites, keep); scored != len(sites) {
			t.Errorf("keep %d: scored %d of %d sites, want all", keep, scored, len(sites))
		}
	}
	// Open ocean only: no site is near a centre.
	var ocean []Site
	for i, s := range sites {
		if !nearCenter(s) {
			ocean = append(ocean, Site{ID: i, LatDeg: s.LatDeg, LonDeg: s.LonDeg})
		}
	}
	if scored := checkFilterMatchesUnpruned(t, "ocean", ocean, 10); scored != len(ocean) {
		t.Errorf("ocean: scored %d of %d sites, want all", scored, len(ocean))
	}
}

// TestFarSitesWeighLessThanTheBound: every site outside the caps, at the
// paper-scale tiling, weighs less than farBound.
func TestFarSitesWeighLessThanTheBound(t *testing.T) {
	sites, err := TriangularSites(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		if w := GDPDensity(s.LatDeg, s.LonDeg); !nearCenter(s) && w >= farBound {
			t.Fatalf("site %d at (%v, %v) is far from every centre but weighs %v >= %v", s.ID, s.LatDeg, s.LonDeg, w, farBound)
		}
	}
}

// FuzzFilterByGDP: on random site sets — icosphere centroids jittered in
// latitude and longitude, some repeated under another ID so that weights
// tie — and a random keep up to len(sites), FilterByGDP returns the
// unpruned ranking bit for bit.
func FuzzFilterByGDP(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(60), 0.5)
	f.Add(int64(2), uint16(1280), uint16(1280), 3.0)
	f.Add(int64(3), uint16(40), uint16(7), 40.0)
	f.Add(int64(4), uint16(900), uint16(200), 0.0)
	base, err := TriangularSites(4)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, keep uint16, jitterDeg float64) {
		if math.IsNaN(jitterDeg) || math.IsInf(jitterDeg, 0) {
			return
		}
		jitterDeg = math.Min(math.Abs(jitterDeg), 180)
		rng := rand.New(rand.NewSource(seed))
		count := 1 + int(n)%2000
		sites := make([]Site, 0, count)
		for _, id := range rng.Perm(count) {
			if len(sites) > 0 && rng.Intn(8) == 0 {
				dup := sites[rng.Intn(len(sites))]
				dup.ID = id
				sites = append(sites, dup)
				continue
			}
			s := base[rng.Intn(len(base))]
			lat := math.Max(-90, math.Min(90, s.LatDeg+jitterDeg*(2*rng.Float64()-1)))
			lon := math.Mod(s.LonDeg+jitterDeg*(2*rng.Float64()-1)+540, 360) - 180
			sites = append(sites, Site{ID: id, LatDeg: lat, LonDeg: lon})
		}
		k := 1 + int(keep)%count
		if keep%4 == 0 {
			k = count
		}
		checkFilterMatchesUnpruned(t, fmt.Sprintf("%d sites, keep %d", count, k), sites, k)
	})
}

func TestSiteLLA(t *testing.T) {
	s := Site{ID: 3, LatDeg: 12.5, LonDeg: -45.25}
	lla := s.LLA()
	if lla.LatDeg != 12.5 || lla.LonDeg != -45.25 || lla.AltKm != 0 {
		t.Errorf("LLA = %+v", lla)
	}
}
