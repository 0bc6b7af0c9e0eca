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
	"sort"
	"sync"

	"spacebooking/internal/geo"
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

// icosahedron returns the 12 vertices and 20 faces of a unit icosahedron.
func icosahedron() ([]geo.Vec3, [][3]int) {
	phi := (1 + math.Sqrt(5)) / 2
	raw := []geo.Vec3{
		{X: -1, Y: phi}, {X: 1, Y: phi}, {X: -1, Y: -phi}, {X: 1, Y: -phi},
		{Y: -1, Z: phi}, {Y: 1, Z: phi}, {Y: -1, Z: -phi}, {Y: 1, Z: -phi},
		{X: phi, Z: -1}, {X: phi, Z: 1}, {X: -phi, Z: -1}, {X: -phi, Z: 1},
	}
	verts := make([]geo.Vec3, len(raw))
	for i, v := range raw {
		verts[i] = v.Unit()
	}
	faces := [][3]int{
		{0, 11, 5}, {0, 5, 1}, {0, 1, 7}, {0, 7, 10}, {0, 10, 11},
		{1, 5, 9}, {5, 11, 4}, {11, 10, 2}, {10, 7, 6}, {7, 1, 8},
		{3, 9, 4}, {3, 4, 2}, {3, 2, 6}, {3, 6, 8}, {3, 8, 9},
		{4, 9, 5}, {2, 4, 11}, {6, 2, 10}, {8, 6, 7}, {9, 8, 1},
	}
	return verts, faces
}

// subdivide splits each triangular face into four, projecting new
// vertices back onto the unit sphere.
func subdivide(verts []geo.Vec3, faces [][3]int) ([]geo.Vec3, [][3]int) {
	type edge struct{ a, b int }
	midpoints := make(map[edge]int, len(faces)*3/2)
	mid := func(a, b int) int {
		if a > b {
			a, b = b, a
		}
		key := edge{a, b}
		if idx, ok := midpoints[key]; ok {
			return idx
		}
		m := verts[a].Add(verts[b]).Unit()
		verts = append(verts, m)
		midpoints[key] = len(verts) - 1
		return len(verts) - 1
	}

	newFaces := make([][3]int, 0, len(faces)*4)
	for _, f := range faces {
		ab := mid(f[0], f[1])
		bc := mid(f[1], f[2])
		ca := mid(f[2], f[0])
		newFaces = append(newFaces,
			[3]int{f[0], ab, ca},
			[3]int{f[1], bc, ab},
			[3]int{f[2], ca, bc},
			[3]int{ab, bc, ca},
		)
	}
	return verts, newFaces
}

// TriangularSites tiles the sphere with 20*4^subdivisions triangles and
// returns one site per triangle centroid. subdivisions=5 yields 20480
// triangles (~2.5e4 km^2 each), the granularity the paper's 1761-site
// GDP filtering starts from.
func TriangularSites(subdivisions int) ([]Site, error) {
	if subdivisions < 0 || subdivisions > 8 {
		return nil, fmt.Errorf("grid: subdivisions %d outside [0,8]", subdivisions)
	}
	verts, faces := icosahedron()
	for i := 0; i < subdivisions; i++ {
		verts, faces = subdivide(verts, faces)
	}

	sites := make([]Site, 0, len(faces))
	for i, f := range faces {
		c := verts[f[0]].Add(verts[f[1]]).Add(verts[f[2]]).Unit()
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
// geodetic point: a sum of Gaussian bumps over the economic centres.
func GDPDensity(latDeg, lonDeg float64) float64 {
	p := geo.NewSpherePoint(geo.LLA{LatDeg: latDeg, LonDeg: lonDeg})
	total := 0.0
	for i, c := range economicCenters {
		d := geo.HaversineKm(p, centerPoints[i])
		total += c.weight * math.Exp(-d*d/(2*c.spread*c.spread))
	}
	return total
}

// FilterByGDP keeps the `keep` highest-GDP sites, re-assigning dense IDs
// in descending weight order. It mirrors the paper's GDP-based exclusion
// of unlikely user areas (1761 sites survive at paper scale).
func FilterByGDP(sites []Site, keep int) ([]Site, error) {
	if keep <= 0 {
		return nil, fmt.Errorf("grid: keep must be positive, got %d", keep)
	}
	if keep > len(sites) {
		return nil, fmt.Errorf("grid: keep %d exceeds available sites %d", keep, len(sites))
	}

	scored := make([]Site, len(sites))
	copy(scored, sites)
	// Scoring is 47 great-circle distances per site and every site is
	// independent: fan contiguous chunks out over GOMAXPROCS workers,
	// each writing only its own chunk's weights.
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	chunk := (len(scored) + workers - 1) / workers
	for lo := 0; lo < len(scored); lo += chunk {
		part := scored[lo:min(lo+chunk, len(scored))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range part {
				part[i].Weight = GDPDensity(part[i].LatDeg, part[i].LonDeg)
			}
		}()
	}
	wg.Wait()
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Weight != scored[j].Weight {
			return scored[i].Weight > scored[j].Weight
		}
		return scored[i].ID < scored[j].ID // deterministic tie-break
	})
	out := scored[:keep:keep]
	for i := range out {
		out[i].ID = i
	}
	return out, nil
}
