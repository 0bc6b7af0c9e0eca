package topology

import (
	"math"
	"testing"

	"spacebooking/internal/geo"
	"spacebooking/internal/grid"
	"spacebooking/internal/orbit"
)

// cheapErrKm is the pinned bound on the circular-orbit shortcut's error:
// TestCheapPositionWithinMargin holds every shortcut position to it, and
// FuzzTwoTierDecision perturbs exact positions by up to it.
const cheapErrKm = cheapMarginKm / 1000

// TestCheapPositionWithinMargin: the row fill's shortcut position of every
// satellite is within cheapErrKm of slotFrame.position's, in every slot of
// the small, medium and paper-scale shells and in 100 slots sampled out to
// a hundred horizons. It measures 6.9e-10 km at most (full, far slots).
func TestCheapPositionWithinMargin(t *testing.T) {
	medium := DefaultConfig(testEpoch)
	medium.Walker.Planes, medium.Walker.SatsPerPlane, medium.Walker.PhasingF = 12, 24, 5
	medium.Horizon = 192
	small := smallConfig()
	small.Horizon = 96
	for _, sc := range []struct {
		name string
		cfg  Config
	}{{"small", small}, {"medium", medium}, {"full", fullConfig()}} {
		p, err := NewProvider(sc.cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		h := p.Horizon()
		for k := 1; k <= 100; k++ {
			p.frames = append(p.frames, newSlotFrame(sc.cfg, k*h+(37*k)%h))
		}
		var r slotRow
		worst, worstFar := 0.0, 0.0
		for slot := range p.frames {
			p.fillRow(&r, slot, nil)
			for sat, cheap := range r.cheap {
				exact, _ := p.frames[slot].position(&p.satProps[sat])
				d := cheap.DistanceTo(exact)
				if d > cheapErrKm {
					t.Fatalf("%s, slot %d, satellite %d: shortcut %v is %v km from the exact %v", sc.name, slot, sat, cheap, d, exact)
				}
				if slot < h {
					worst = max(worst, d)
				} else {
					worstFar = max(worstFar, d)
				}
			}
		}
		if r.exacts != 0 {
			t.Errorf("%s: a row of circular orbits propagated %d satellites exactly", sc.name, r.exacts)
		}
		t.Logf("%s: largest shortcut error %.3g km over the horizon, %.3g km out to 100 horizons", sc.name, worst, worstFar)
	}
}

// TestEccentricOrbitTakesExactPath: a satellite whose propagator has no
// shortcut is placed and flagged from its exact position, bit for bit.
func TestEccentricOrbitTakesExactPath(t *testing.T) {
	eo, err := orbit.SyntheticEOFleet(orbit.EOFleetConfig{
		Count: 1, MinAltitudeKm: 540, MaxAltitudeKm: 560, Seed: 5, Epoch: testEpoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eo[0].Elements.Eccentricity == 0 {
		t.Fatal("synthetic EO orbit is circular")
	}
	p := newSmallProvider(t, nil, nil)
	const sat = 17
	p.satProps[sat] = eo[0].Elements.Propagator()
	var r slotRow
	flags := make([]bool, p.NumSats())
	for slot := range p.frames {
		p.fillRow(&r, slot, flags)
		ecef, eci := p.frames[slot].position(&p.satProps[sat])
		if r.cheap[sat] != ecef || flags[sat] != !geo.InUmbra(eci, geo.SunDirectionECI(p.frames[slot].at)) {
			t.Fatalf("slot %d: row %v sunlit %v, exact %v", slot, r.cheap[sat], flags[sat], ecef)
		}
	}
	if r.exacts < len(p.frames) {
		t.Errorf("%d exact propagations over %d slots", r.exacts, len(p.frames))
	}
}

// TestSweepRarelyPropagatesExactly pins the work the shortcut saves: at
// the paper-scale preset, with the sunlit flags and twenty ground
// endpoints to freeze (ten pairs' worth), the sweep propagates at most 1 %
// of the satellite-slots exactly. It measures none.
func TestSweepRarelyPropagatesExactly(t *testing.T) {
	all, err := grid.TriangularSites(5)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := grid.FilterByGDP(all, 1761)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProvider(fullConfig(), sites, nil)
	if err != nil {
		t.Fatal(err)
	}
	var endpoints []Endpoint
	for i := 0; i < 20; i++ {
		endpoints = append(endpoints, Endpoint{Kind: EndpointGround, Index: i * len(sites) / 20})
	}
	todo, err := p.claim(endpoints)
	if err != nil {
		t.Fatal(err)
	}
	exacts := p.sweep(todo)
	satSlots := p.Horizon() * p.NumSats()
	if exacts > satSlots/100 {
		t.Errorf("the sweep propagated %d of %d satellite-slots exactly, want at most 1 %%", exacts, satSlots)
	}
	t.Logf("%d exact propagations over %d satellite-slots", exacts, satSlots)
}

// FuzzTwoTierDecision: a sunlit or visibility verdict the shortcut is sure
// of equals the exact test's on the exact position. The fuzzer picks an
// exact satellite position (300–2 500 km up), a perturbation of at most
// cheapErrKm giving the shortcut position, a Sun direction, and a ground
// site (lat, lon) or a space observer (a position in the same shell band).
// The seeds sit 1 µm and cheapMarginKm + 1 µm from the shadow cylinder's
// wall, the terminator plane, the range limit and the 25° mask. (Above the
// surface the terminator never decides: a position near it is outside
// the cylinder.)
func FuzzTwoTierDecision(f *testing.F) {
	for _, s := range twoTierSeeds() {
		f.Add(s.exact.X, s.exact.Y, s.exact.Z, s.delta.X, s.delta.Y, s.delta.Z,
			s.sun.X, s.sun.Y, s.sun.Z, s.ground, s.obs.X, s.obs.Y, s.obs.Z)
	}
	groundReach := maxSlantRangeKm(550, 25)
	f.Fuzz(func(t *testing.T, x, y, z, dx, dy, dz, sx, sy, sz float64, ground bool, ox, oy, oz float64) {
		exact := geo.Vec3{X: x, Y: y, Z: z}
		if !inShellBand(exact) {
			return
		}
		sun := geo.Vec3{X: sx, Y: sy, Z: sz}.Unit()
		if !(math.Abs(sun.Norm()-1) < 1e-12) {
			return
		}
		delta := geo.Vec3{X: dx, Y: dy, Z: dz}
		n := delta.Norm()
		if math.IsNaN(n) || math.IsInf(n, 0) {
			return
		}
		if n > cheapErrKm {
			delta = delta.Scale(cheapErrKm / n)
		}
		cheap := exact.Add(delta)

		if lit, sure := sunlitVerdict(cheap, sun); sure && lit == geo.InUmbra(exact, sun) {
			t.Fatalf("shortcut %v says sunlit %v, exact %v is in umbra %v (sun %v)", cheap, lit, exact, !lit, sun)
		}

		var obs geo.Vec3
		reach := 1500.0
		if ground {
			if !(ox >= -90 && ox <= 90 && oy >= -180 && oy <= 180) {
				return
			}
			obs, reach = geo.LLAToECEF(geo.LLA{LatDeg: ox, LonDeg: oy}), groundReach
		} else if obs = (geo.Vec3{X: ox, Y: oy, Z: oz}); !inShellBand(obs) {
			return
		}
		test := newVisTest(obs, ground, reach, 25)
		if vis, sure := test.cheap(cheap); sure && vis != test.exact(exact) {
			t.Fatalf("observer %v (ground %v): shortcut %v says visible %v, exact %v says %v", obs, ground, cheap, vis, exact, !vis)
		}
	})
}

func inShellBand(v geo.Vec3) bool {
	r := v.Norm()
	return r >= geo.EarthRadiusKm+300 && r <= geo.EarthRadiusKm+2500
}

type twoTierSeed struct {
	exact, delta, sun geo.Vec3
	ground            bool
	obs               geo.Vec3 // (lat, lon, 0) for a ground site
}

// twoTierSeeds places exact positions just inside and just outside every
// threshold and the margin around it, each unperturbed and perturbed by
// cheapErrKm toward the other side.
func twoTierSeeds() []twoTierSeed {
	re := geo.EarthRadiusKm
	sunX := geo.Vec3{X: 1}
	site := geo.LLA{LatDeg: 40.7, LonDeg: -74}
	siteECEF := geo.LLAToECEF(site)
	up := siteECEF.Unit()
	east := geo.Vec3{Z: 1}.Cross(up).Unit()
	north := up.Cross(east)
	// toward returns the point at range r and elevation el (radians) due
	// north of the site.
	toward := func(r, el float64) geo.Vec3 {
		return siteECEF.Add(north.Scale(r * math.Cos(el))).Add(up.Scale(r * math.Sin(el)))
	}
	groundReach := maxSlantRangeKm(550, 25)
	eoObs := geo.Vec3{X: re + 500}
	siteObs := geo.Vec3{X: site.LatDeg, Y: site.LonDeg}

	var seeds []twoTierSeed
	for _, off := range []float64{1e-9, -1e-9, cheapMarginKm + 1e-9, -cheapMarginKm - 1e-9} {
		for _, sign := range []float64{0, 1, -1} {
			push := sign * cheapErrKm
			seeds = append(seeds,
				// the shadow cylinder's wall, behind the Earth
				twoTierSeed{exact: geo.Vec3{X: -3000, Y: re + off}, delta: geo.Vec3{Y: push}, sun: sunX, ground: true, obs: siteObs},
				// the terminator plane
				twoTierSeed{exact: geo.Vec3{X: off, Y: re + 500}, delta: geo.Vec3{X: push}, sun: sunX, obs: eoObs},
				// the ground range limit, well above the mask
				twoTierSeed{exact: toward(groundReach+off, geo.DegToRad(40)), delta: north.Scale(push), sun: sunX, ground: true, obs: siteObs},
				// the 25° mask, well inside the range limit
				twoTierSeed{exact: toward(900, geo.DegToRad(25)+math.Asin(off/900)), delta: up.Scale(push), sun: sunX, ground: true, obs: siteObs},
				// the space observer's range limit
				twoTierSeed{exact: eoObs.Add(geo.Vec3{Y: 1500 + off}), delta: geo.Vec3{Y: push}, sun: sunX, obs: eoObs},
			)
		}
	}
	return seeds
}
