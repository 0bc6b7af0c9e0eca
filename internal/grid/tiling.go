// Package grid builds the ground-user geography of the simulation: a
// triangular tiling of the Earth's surface whose triangle centroids are
// the potential user sites, filtered by an economic-activity (GDP)
// density so that traffic sources and destinations cluster where real
// demand is — mirroring §VI-A of the paper (1761 sites after filtering).
package grid

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"spacebooking/internal/geo"
	"spacebooking/internal/pricing"
)

// Site is a potential ground-user location: the centroid of one triangle
// of the tiling, annotated with its synthetic GDP weight.
type Site struct {
	ID     int
	LatDeg float64
	LonDeg float64
	// Weight is the unnormalised GDP density at the site. Higher weights
	// survive filtering and are picked more often as request endpoints.
	Weight float64
}

// LLA returns the site's geodetic position at ground level.
func (s Site) LLA() geo.LLA {
	return geo.LLA{LatDeg: s.LatDeg, LonDeg: s.LonDeg}
}

// icosahedron returns the 20 faces of a unit icosahedron, each as its
// three vertices.
func icosahedron() [][3]geo.Vec3 {
	phi := (1 + math.Sqrt(5)) / 2
	raw := []geo.Vec3{
		{X: -1, Y: phi}, {X: 1, Y: phi}, {X: -1, Y: -phi}, {X: 1, Y: -phi},
		{Y: -1, Z: phi}, {Y: 1, Z: phi}, {Y: -1, Z: -phi}, {Y: 1, Z: -phi},
		{X: phi, Z: -1}, {X: phi, Z: 1}, {X: -phi, Z: -1}, {X: -phi, Z: 1},
	}
	var faces [][3]geo.Vec3
	for _, f := range [][3]int{
		{0, 11, 5}, {0, 5, 1}, {0, 1, 7}, {0, 7, 10}, {0, 10, 11},
		{1, 5, 9}, {5, 11, 4}, {11, 10, 2}, {10, 7, 6}, {7, 1, 8},
		{3, 9, 4}, {3, 4, 2}, {3, 2, 6}, {3, 6, 8}, {3, 8, 9},
		{4, 9, 5}, {2, 4, 11}, {6, 2, 10}, {8, 6, 7}, {9, 8, 1},
	} {
		faces = append(faces, [3]geo.Vec3{raw[f[0]].Unit(), raw[f[1]].Unit(), raw[f[2]].Unit()})
	}
	return faces
}

// subdivide splits each triangular face into four, projecting the edge
// midpoints back onto the unit sphere. The two faces sharing an edge each
// compute its midpoint, from the same two vertices in opposite order;
// IEEE addition is commutative, so both get the same bits.
func subdivide(faces [][3]geo.Vec3) [][3]geo.Vec3 {
	out := make([][3]geo.Vec3, 0, len(faces)*4)
	for _, f := range faces {
		ab := f[0].Add(f[1]).Unit()
		bc := f[1].Add(f[2]).Unit()
		ca := f[2].Add(f[0]).Unit()
		out = append(out,
			[3]geo.Vec3{f[0], ab, ca},
			[3]geo.Vec3{f[1], bc, ab},
			[3]geo.Vec3{f[2], ca, bc},
			[3]geo.Vec3{ab, bc, ca},
		)
	}
	return out
}

// TriangularSites tiles the sphere with 20*4^subdivisions triangles and
// returns one site per triangle centroid. subdivisions=5 yields 20480
// triangles (~2.5e4 km^2 each), the granularity the paper's 1761-site
// GDP filtering starts from.
func TriangularSites(subdivisions int) ([]Site, error) {
	if subdivisions < 0 || subdivisions > 8 {
		return nil, fmt.Errorf("grid: subdivisions %d outside [0,8]", subdivisions)
	}
	faces := icosahedron()
	for i := 0; i < subdivisions; i++ {
		faces = subdivide(faces)
	}

	sites := make([]Site, 0, len(faces))
	for i, f := range faces {
		c := f[0].Add(f[1]).Add(f[2]).Unit()
		lat := geo.RadToDeg(math.Asin(c.Z))
		lon := geo.RadToDeg(math.Atan2(c.Y, c.X))
		sites = append(sites, Site{ID: i, LatDeg: lat, LonDeg: lon})
	}
	return sites, nil
}

// economicCenter is a Gaussian bump of GDP density.
type economicCenter struct {
	name   string
	latDeg float64
	lonDeg float64
	weight float64 // relative GDP mass
	spread float64 // Gaussian sigma in km
}

// economicCenters approximates the global GDP distribution with 47
// metropolitan/regional centres. This substitutes for the GDP raster the
// paper (via ICARUS) uses; see DESIGN.md substitution #2. Read-only.
var economicCenters = []economicCenter{
	{"New York", 40.7, -74.0, 10, 600},
	{"Los Angeles", 34.1, -118.2, 7, 500},
	{"Chicago", 41.9, -87.6, 5, 400},
	{"Houston", 29.8, -95.4, 4, 400},
	{"Toronto", 43.7, -79.4, 3.5, 400},
	{"Mexico City", 19.4, -99.1, 3.5, 400},
	{"São Paulo", -23.6, -46.6, 4.5, 500},
	{"Buenos Aires", -34.6, -58.4, 2.5, 400},
	{"Bogotá", 4.7, -74.1, 1.5, 300},
	{"London", 51.5, -0.1, 8, 500},
	{"Paris", 48.9, 2.4, 6, 450},
	{"Frankfurt", 50.1, 8.7, 6, 500},
	{"Madrid", 40.4, -3.7, 3, 400},
	{"Milan", 45.5, 9.2, 4, 400},
	{"Amsterdam", 52.4, 4.9, 3.5, 300},
	{"Zurich", 47.4, 8.5, 2.5, 250},
	{"Stockholm", 59.3, 18.1, 2, 350},
	{"Warsaw", 52.2, 21.0, 2, 350},
	{"Moscow", 55.8, 37.6, 3.5, 500},
	{"Istanbul", 41.0, 28.9, 2.5, 350},
	{"Dubai", 25.2, 55.3, 3, 350},
	{"Riyadh", 24.7, 46.7, 2, 350},
	{"Tel Aviv", 32.1, 34.8, 1.5, 200},
	{"Mumbai", 19.1, 72.9, 4.5, 450},
	{"Delhi", 28.6, 77.2, 4.5, 450},
	{"Bangalore", 13.0, 77.6, 3, 350},
	{"Karachi", 24.9, 67.0, 1.5, 300},
	{"Dhaka", 23.8, 90.4, 1.5, 250},
	{"Bangkok", 13.8, 100.5, 2.5, 350},
	{"Singapore", 1.4, 103.8, 4, 250},
	{"Jakarta", -6.2, 106.8, 3, 350},
	{"Manila", 14.6, 121.0, 2, 300},
	{"Ho Chi Minh City", 10.8, 106.7, 1.5, 250},
	{"Hong Kong", 22.3, 114.2, 5, 300},
	{"Shenzhen", 22.5, 114.1, 5, 300},
	{"Shanghai", 31.2, 121.5, 8, 500},
	{"Beijing", 39.9, 116.4, 7, 500},
	{"Seoul", 37.6, 127.0, 6, 400},
	{"Tokyo", 35.7, 139.7, 9, 500},
	{"Osaka", 34.7, 135.5, 4, 350},
	{"Taipei", 25.0, 121.6, 3, 250},
	{"Sydney", -33.9, 151.2, 3.5, 400},
	{"Melbourne", -37.8, 145.0, 3, 400},
	{"Johannesburg", -26.2, 28.0, 2, 400},
	{"Lagos", 6.5, 3.4, 1.5, 350},
	{"Cairo", 30.0, 31.2, 2, 350},
	{"Nairobi", -1.3, 36.8, 1, 300},
}

// centerPoints[i] is economicCenters[i] prepared for the haversine, so a
// site's score takes no trigonometry on the centre side. Read-only.
var centerPoints = func() []geo.SpherePoint {
	pts := make([]geo.SpherePoint, len(economicCenters))
	for i, c := range economicCenters {
		pts[i] = geo.NewSpherePoint(geo.LLA{LatDeg: c.latDeg, LonDeg: c.lonDeg})
	}
	return pts
}()

// GDPDensity returns the synthetic GDP density (arbitrary units) at a
// geodetic point: a sum of Gaussian bumps over the economic centres,
// through pricing.Exp so that the site ranking is the same on every host.
func GDPDensity(latDeg, lonDeg float64) float64 {
	p := geo.NewSpherePoint(geo.LLA{LatDeg: latDeg, LonDeg: lonDeg})
	total := 0.0
	for i, c := range economicCenters {
		d := geo.HaversineKm(p, centerPoints[i])
		total += c.weight * pricing.Exp(-d*d/(2*c.spread*c.spread))
	}
	return total
}

// FilterByGDP prunes by a bound: a site farther than m·σ_c (m = farSigmas,
// great circle) from every economic centre c weighs less than
// Σ_c w_c·e^(−m²/2). farBound is that sum raised by a factor 1 + capMargin
// and each centre's cap cosine is lowered by capMargin, far beyond the
// float error of the dot product, the haversine and the 47-term sum (each
// ~1e-15 relative): a site is called far only when it certainly is, and
// then its computed weight is certainly below farBound.
const (
	farSigmas = 3.5
	capMargin = 1e-9
)

// centerDirs[i] is economicCenters[i]'s unit vector and centerMinCos[i]
// the cosine of m·σ_i/R lowered by capMargin: a site whose unit vector's
// dot product with centerDirs[i] is below it is farther than m·σ_i from
// the centre. Read-only.
var centerDirs, centerMinCos, farBound = func() ([]geo.Vec3, []float64, float64) {
	dirs := make([]geo.Vec3, len(economicCenters))
	minCos := make([]float64, len(economicCenters))
	sum := 0.0
	for i, c := range economicCenters {
		dirs[i] = unitVector(c.latDeg, c.lonDeg)
		minCos[i] = math.Cos(math.Min(math.Pi, farSigmas*c.spread/geo.EarthRadiusKm)) - capMargin
		sum += c.weight
	}
	return dirs, minCos, sum * math.Exp(-farSigmas*farSigmas/2) * (1 + capMargin)
}()

// unitVector returns the unit vector of a point on the sphere.
func unitVector(latDeg, lonDeg float64) geo.Vec3 {
	sinLat, cosLat := math.Sincos(geo.DegToRad(latDeg))
	sinLon, cosLon := math.Sincos(geo.DegToRad(lonDeg))
	return geo.Vec3{X: cosLat * cosLon, Y: cosLat * sinLon, Z: sinLat}
}

// nearCenter reports whether s is within m·σ of some economic centre.
func nearCenter(s Site) bool {
	u := unitVector(s.LatDeg, s.LonDeg)
	for i, dir := range centerDirs {
		if u.Dot(dir) >= centerMinCos[i] {
			return true
		}
	}
	return false
}

// FilterByGDP keeps the `keep` highest-GDP sites, re-assigning dense IDs
// in descending weight order (ties by ascending ID). It mirrors the
// paper's GDP-based exclusion of unlikely user areas (1761 sites survive
// at paper scale).
func FilterByGDP(sites []Site, keep int) ([]Site, error) {
	if keep <= 0 {
		return nil, fmt.Errorf("grid: keep must be positive, got %d", keep)
	}
	if keep > len(sites) {
		return nil, fmt.Errorf("grid: keep %d exceeds available sites %d", keep, len(sites))
	}
	out, _ := rankByGDP(sites, keep)
	return out, nil
}

// rankByGDP is FilterByGDP on valid arguments; it also returns how many
// sites it scored. It scores the sites near a centre first. If they are
// at least keep and the keep-th best of them beats farBound, every other
// site ranks below every kept one, so it stops there; otherwise it scores
// the rest and ranks them all. Either way the result is the ranking of
// all sites, bit for bit.
func rankByGDP(sites []Site, keep int) ([]Site, int) {
	ranked := slices.Clone(sites)
	n := 0
	for i := range ranked {
		if nearCenter(ranked[i]) {
			ranked[n], ranked[i] = ranked[i], ranked[n]
			n++
		}
	}
	if n < keep {
		n = len(ranked)
	}
	for scored := 0; ; n = len(ranked) {
		scoreGDP(ranked[scored:n])
		scored = n
		sortByWeight(ranked[:n])
		if n == len(ranked) || ranked[keep-1].Weight > farBound {
			break
		}
	}
	out := ranked[:keep:keep]
	for i := range out {
		out[i].ID = i
	}
	return out, n
}

// scoreGDP sets every site's weight. Scoring is 47 great-circle distances
// per site and every site is independent: fan contiguous chunks out over
// GOMAXPROCS workers, each writing only its own chunk's weights.
func scoreGDP(sites []Site) {
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	chunk := (len(sites) + workers - 1) / workers
	for lo := 0; lo < len(sites); lo += chunk {
		part := sites[lo:min(lo+chunk, len(sites))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range part {
				part[i].Weight = GDPDensity(part[i].LatDeg, part[i].LonDeg)
			}
		}()
	}
	wg.Wait()
}

// sortByWeight orders sites by descending weight, ties by ascending ID.
func sortByWeight(sites []Site) {
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].Weight != sites[j].Weight {
			return sites[i].Weight > sites[j].Weight
		}
		return sites[i].ID < sites[j].ID // deterministic tie-break
	})
}
