package topology

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"spacebooking/internal/geo"
	"spacebooking/internal/grid"
	"spacebooking/internal/orbit"
)

var testEpoch = time.Date(2026, time.July, 5, 0, 0, 0, 0, time.UTC)

// smallConfig is an 8-plane x 12-satellite shell, enough structure for
// every topological property while staying fast.
func smallConfig() Config {
	cfg := DefaultConfig(testEpoch)
	cfg.Walker.Planes = 8
	cfg.Walker.SatsPerPlane = 12
	cfg.Walker.PhasingF = 3
	cfg.Horizon = 30
	return cfg
}

func newSmallProvider(t *testing.T, sites []grid.Site, eo []orbit.Satellite) *Provider {
	t.Helper()
	p, err := NewProvider(smallConfig(), sites, eo)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad walker", func(c *Config) { c.Walker.Planes = 0 }},
		{"zero slot", func(c *Config) { c.SlotSeconds = 0 }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"zero ISL capacity", func(c *Config) { c.ISLCapacityMbps = 0 }},
		{"zero USL capacity", func(c *Config) { c.USLCapacityMbps = 0 }},
		{"elevation 90", func(c *Config) { c.MinElevationDeg = 90 }},
		{"negative elevation", func(c *Config) { c.MinElevationDeg = -1 }},
		{"zero EO range", func(c *Config) { c.MaxEORangeKm = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	if err := smallConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestProviderBasicCounts(t *testing.T) {
	sites := []grid.Site{{ID: 0, LatDeg: 40.7, LonDeg: -74.0}}
	eo, err := orbit.SyntheticEOFleet(orbit.EOFleetConfig{
		Count: 5, MinAltitudeKm: 475, MaxAltitudeKm: 525, Seed: 1, Epoch: testEpoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := newSmallProvider(t, sites, eo)
	if p.NumSats() != 96 {
		t.Errorf("NumSats = %d, want 96", p.NumSats())
	}
	if p.NumSites() != 1 || p.NumEO() != 5 {
		t.Errorf("sites/EO = %d/%d", p.NumSites(), p.NumEO())
	}
	if p.Horizon() != 30 {
		t.Errorf("Horizon = %d", p.Horizon())
	}
}

func TestPlusGridNeighborStructure(t *testing.T) {
	p := newSmallProvider(t, nil, nil)
	w := p.Config().Walker
	for sat := 0; sat < p.NumSats(); sat++ {
		neighbors := p.ISLNeighbors(sat)
		if len(neighbors) != 4 {
			t.Fatalf("satellite %d has %d neighbors, want 4", sat, len(neighbors))
		}
		plane, idx := sat/w.SatsPerPlane, sat%w.SatsPerPlane
		want := map[int]bool{
			plane*w.SatsPerPlane + (idx+1)%w.SatsPerPlane:                true,
			plane*w.SatsPerPlane + (idx-1+w.SatsPerPlane)%w.SatsPerPlane: true,
			((plane+1)%w.Planes)*w.SatsPerPlane + idx:                    true,
			((plane-1+w.Planes)%w.Planes)*w.SatsPerPlane + idx:           true,
		}
		for _, n := range neighbors {
			if !want[n] {
				t.Fatalf("satellite %d has unexpected neighbor %d", sat, n)
			}
		}
	}
}

func TestPlusGridSymmetric(t *testing.T) {
	p := newSmallProvider(t, nil, nil)
	for sat := 0; sat < p.NumSats(); sat++ {
		for _, n := range p.ISLNeighbors(sat) {
			found := false
			for _, back := range p.ISLNeighbors(n) {
				if back == sat {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("ISL %d->%d not symmetric", sat, n)
			}
		}
	}
}

func TestPlusGridDegenerateShells(t *testing.T) {
	cfg := smallConfig()
	cfg.Walker.Planes = 2
	cfg.Walker.SatsPerPlane = 2
	cfg.Walker.PhasingF = 0
	p, err := NewProvider(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With 2 planes and 2 sats per plane there must be no duplicate
	// neighbor entries (next == prev collapses).
	for sat := 0; sat < p.NumSats(); sat++ {
		seen := map[int]bool{}
		for _, n := range p.ISLNeighbors(sat) {
			if n == sat {
				t.Fatalf("satellite %d is its own neighbor", sat)
			}
			if seen[n] {
				t.Fatalf("satellite %d lists neighbor %d twice", sat, n)
			}
			seen[n] = true
		}
	}
}

func TestNeighborDistancesBounded(t *testing.T) {
	p := newSmallProvider(t, nil, nil)
	// Intra-plane neighbours are 360/12=30 degrees apart; the chord at
	// a+550 km is ~3586 km. Cross-plane neighbours in planes 45° of RAAN
	// apart (plus Walker phasing) can reach ~55° of central angle near
	// the equator, so bound at the chord of 70° — still far from
	// antipodal, which is what this test guards against.
	a := geo.EarthRadiusKm + 550
	maxChord := 2 * a * math.Sin(geo.DegToRad(70/2.0))
	for slot := 0; slot < p.Horizon(); slot += 7 {
		for sat := 0; sat < p.NumSats(); sat++ {
			for _, n := range p.ISLNeighbors(sat) {
				d := p.SatPosECEF(slot, sat).DistanceTo(p.SatPosECEF(slot, n))
				if d > maxChord {
					t.Fatalf("slot %d: ISL %d-%d length %v exceeds %v", slot, sat, n, d, maxChord)
				}
				if d < 1 {
					t.Fatalf("slot %d: ISL %d-%d co-located", slot, sat, n)
				}
			}
		}
	}
}

func TestSunlitFractionReasonable(t *testing.T) {
	p := newSmallProvider(t, nil, nil)
	lit, total := 0, 0
	for slot := 0; slot < p.Horizon(); slot++ {
		for sat := 0; sat < p.NumSats(); sat++ {
			total++
			if p.Sunlit(slot, sat) {
				lit++
			}
		}
	}
	frac := float64(lit) / float64(total)
	// For a 550 km shell roughly 58-70% of satellites are sunlit at any
	// time (umbra fraction <= asin(Re/r)/pi ~ 0.37 in the worst plane).
	if frac < 0.55 || frac > 0.95 {
		t.Errorf("sunlit fraction = %v, expected within [0.55,0.95]", frac)
	}
}

func TestSatellitesCycleThroughUmbra(t *testing.T) {
	// Over a full orbital period (96 slots at 1 min), a satellite in a
	// 53-degree orbit should experience both sunlight and umbra.
	cfg := smallConfig()
	cfg.Horizon = 96
	p, err := NewProvider(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sawLit, sawDark := false, false
	for slot := 0; slot < p.Horizon(); slot++ {
		if p.Sunlit(slot, 0) {
			sawLit = true
		} else {
			sawDark = true
		}
	}
	if !sawLit || !sawDark {
		t.Errorf("satellite 0 never cycled: lit=%v dark=%v", sawLit, sawDark)
	}
}

func TestVisibleSatsGround(t *testing.T) {
	sites := []grid.Site{
		{ID: 0, LatDeg: 40.7, LonDeg: -74.0}, // New York: covered by 53° shell
		{ID: 1, LatDeg: 89.0, LonDeg: 0},     // near north pole: outside 53° coverage
	}
	p := newSmallProvider(t, sites, nil)

	nySeen := 0
	for slot := 0; slot < p.Horizon(); slot++ {
		vis, err := p.VisibleSats(Endpoint{Kind: EndpointGround, Index: 0}, slot)
		if err != nil {
			t.Fatal(err)
		}
		nySeen += len(vis)
		// Every reported satellite must actually satisfy the elevation bound.
		obs := geo.LLAToECEF(sites[0].LLA())
		for _, sat := range vis {
			el := geo.ElevationDeg(obs, p.SatPosECEF(slot, sat))
			if el < p.Config().MinElevationDeg-1e-9 {
				t.Fatalf("slot %d sat %d elevation %v below minimum", slot, sat, el)
			}
		}
	}
	if nySeen == 0 {
		t.Error("New York never saw any satellite; visibility is broken")
	}

	poleSeen := 0
	for slot := 0; slot < p.Horizon(); slot++ {
		vis, err := p.VisibleSats(Endpoint{Kind: EndpointGround, Index: 1}, slot)
		if err != nil {
			t.Fatal(err)
		}
		poleSeen += len(vis)
	}
	if poleSeen > 0 {
		t.Errorf("north pole saw %d satellite-slots from a 53-degree shell", poleSeen)
	}
}

func TestVisibleSatsSpace(t *testing.T) {
	eo, err := orbit.SyntheticEOFleet(orbit.EOFleetConfig{
		Count: 10, MinAltitudeKm: 475, MaxAltitudeKm: 525, Seed: 3, Epoch: testEpoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := newSmallProvider(t, nil, eo)
	total := 0
	for slot := 0; slot < p.Horizon(); slot++ {
		for i := range eo {
			vis, err := p.VisibleSats(Endpoint{Kind: EndpointSpace, Index: i}, slot)
			if err != nil {
				t.Fatal(err)
			}
			total += len(vis)
			for _, sat := range vis {
				obs, err := p.EndpointECEF(Endpoint{Kind: EndpointSpace, Index: i}, slot)
				if err != nil {
					t.Fatal(err)
				}
				d := obs.DistanceTo(p.SatPosECEF(slot, sat))
				if d > p.Config().MaxEORangeKm {
					t.Fatalf("EO %d slot %d: reported sat %d at range %v", i, slot, sat, d)
				}
			}
		}
	}
	if total == 0 {
		t.Error("no EO satellite ever saw a broadband satellite")
	}
}

func TestVisibleSatsErrors(t *testing.T) {
	p := newSmallProvider(t, []grid.Site{{ID: 0}}, nil)
	tests := []struct {
		name string
		e    Endpoint
		slot int
	}{
		{"bad slot", Endpoint{Kind: EndpointGround, Index: 0}, -1},
		{"slot beyond horizon", Endpoint{Kind: EndpointGround, Index: 0}, 999},
		{"site out of range", Endpoint{Kind: EndpointGround, Index: 5}, 0},
		{"eo without fleet", Endpoint{Kind: EndpointSpace, Index: 0}, 0},
		{"unknown kind", Endpoint{Kind: 0, Index: 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := p.VisibleSats(tt.e, tt.slot); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestVisibleSatsMemoised(t *testing.T) {
	p := newSmallProvider(t, []grid.Site{{ID: 0, LatDeg: 35, LonDeg: 139}}, nil)
	e := Endpoint{Kind: EndpointGround, Index: 0}
	a, err := p.VisibleSats(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.VisibleSats(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("memoised result differs: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("memoised result differs at %d", i)
		}
	}
}

func TestGlobalIDs(t *testing.T) {
	sites := []grid.Site{{ID: 0}, {ID: 1}}
	eo, err := orbit.SyntheticEOFleet(orbit.EOFleetConfig{
		Count: 3, MinAltitudeKm: 475, MaxAltitudeKm: 525, Seed: 1, Epoch: testEpoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := newSmallProvider(t, sites, eo)
	s := p.NumSats()
	if got := p.GlobalID(Endpoint{Kind: EndpointGround, Index: 1}); got != s+1 {
		t.Errorf("ground 1 global ID = %d, want %d", got, s+1)
	}
	if got := p.GlobalID(Endpoint{Kind: EndpointSpace, Index: 2}); got != s+2+2 {
		t.Errorf("EO 2 global ID = %d, want %d", got, s+4)
	}
	if got := p.GlobalID(Endpoint{Kind: 0}); got != -1 {
		t.Errorf("unknown kind global ID = %d, want -1", got)
	}
}

func TestMaxSlantRange(t *testing.T) {
	// At 25° elevation and 550 km altitude the slant range is ~1123 km
	// (standard LEO geometry).
	got := maxSlantRangeKm(550, 25)
	if math.Abs(got-1123) > 15 {
		t.Errorf("slant range = %v, want ~1123", got)
	}
	// At zenith-only (89.9°) it approaches the altitude.
	if got := maxSlantRangeKm(550, 89.9); math.Abs(got-550) > 1 {
		t.Errorf("zenith slant = %v, want ~550", got)
	}
}

// referenceECI is the two-body formula as written before the per-orbit
// constants moved into orbit.Propagator: Newton on every orbit, and
// rotations that each take their own sin/cos.
func referenceECI(e orbit.Elements, at time.Time) geo.Vec3 {
	a, ecc := e.SemiMajorKm, e.Eccentricity
	m := geo.WrapTwoPi(geo.DegToRad(e.MeanAnomalyDeg) + math.Sqrt(geo.EarthMuKm3S2/(a*a*a))*at.Sub(e.Epoch).Seconds())
	ea := m
	if ecc > 0.8 {
		ea = math.Pi
	}
	for i := 0; i < 20; i++ {
		delta := (ea - ecc*math.Sin(ea) - m) / (1 - ecc*math.Cos(ea))
		ea -= delta
		if math.Abs(delta) < 1e-12 {
			break
		}
	}
	sinEA, cosEA := math.Sincos(ea)
	nu := math.Atan2(math.Sqrt(1-ecc*ecc)*sinEA, cosEA-ecc)
	r := a * (1 - ecc*cosEA)
	sinNu, cosNu := math.Sincos(nu)
	v := referenceRotZ(geo.Vec3{X: r * cosNu, Y: r * sinNu}, geo.DegToRad(e.ArgPerigeeDeg))
	s, c := math.Sincos(geo.DegToRad(e.InclinationDeg))
	v = geo.Vec3{X: v.X, Y: c*v.Y - s*v.Z, Z: s*v.Y + c*v.Z}
	return referenceRotZ(v, geo.DegToRad(e.RAANDeg))
}

func referenceRotZ(v geo.Vec3, rad float64) geo.Vec3 {
	s, c := math.Sincos(rad)
	return geo.Vec3{X: c*v.X - s*v.Y, Y: s*v.X + c*v.Y, Z: v.Z}
}

// referenceSlot is one slot of the provider rebuilt the way it was built
// before the ECI table went: each position from referenceECI, rotated to
// ECEF with its own sin/cos of −GMST, and visibility from those.
type referenceSlot struct {
	ecef, eoECEF []geo.Vec3
	sunlit       []bool
	visGround    [][]int
	visSpace     [][]int
}

func buildReferenceSlot(cfg Config, slot int, sats []orbit.Satellite, sites []grid.Site, eo []orbit.Satellite) referenceSlot {
	at := cfg.Walker.Epoch.Add(time.Duration(float64(slot) * cfg.SlotSeconds * float64(time.Second)))
	gmst := geo.GMST(at)
	sunDir := geo.SunDirectionECI(at)
	var ref referenceSlot
	for _, s := range sats {
		pos := referenceECI(s.Elements, at)
		ref.ecef = append(ref.ecef, referenceRotZ(pos, -gmst))
		ref.sunlit = append(ref.sunlit, !geo.InUmbra(pos, sunDir))
	}
	for _, s := range eo {
		ref.eoECEF = append(ref.eoECEF, referenceRotZ(referenceECI(s.Elements, at), -gmst))
	}
	maxSlant := maxSlantRangeKm(cfg.Walker.AltitudeKm, cfg.MinElevationDeg)
	for _, site := range sites {
		obs := geo.LLAToECEF(site.LLA())
		var vis []int
		for sat, pos := range ref.ecef {
			if pos.Sub(obs).NormSq() <= maxSlant*maxSlant && geo.ElevationDeg(obs, pos) >= cfg.MinElevationDeg {
				vis = append(vis, sat)
			}
		}
		ref.visGround = append(ref.visGround, vis)
	}
	for _, obs := range ref.eoECEF {
		var vis []int
		for sat, pos := range ref.ecef {
			if pos.Sub(obs).NormSq() <= cfg.MaxEORangeKm*cfg.MaxEORangeKm && geo.LineOfSightClear(obs, pos, 0) {
				vis = append(vis, sat)
			}
		}
		ref.visSpace = append(ref.visSpace, vis)
	}
	return ref
}

// TestProviderMatchesReferenceBuild: the provider's on-demand positions
// (SatPosECEF, EndpointECEF), its sunlit flags and its frozen visibility
// are bit-identical to a rebuild from the reference formula, at the small
// and medium scale presets with a ground tiling and the paper's EO fleet,
// whether one worker builds every slot or four split them.
func TestProviderMatchesReferenceBuild(t *testing.T) {
	sites, err := grid.TriangularSites(1)
	if err != nil {
		t.Fatal(err)
	}
	eo, err := orbit.SyntheticEOFleet(orbit.DefaultEOFleetConfig(testEpoch))
	if err != nil {
		t.Fatal(err)
	}
	small := smallConfig()
	small.Horizon, small.MinElevationDeg = 96, 10
	medium := DefaultConfig(testEpoch)
	medium.Walker.Planes, medium.Walker.SatsPerPlane, medium.Walker.PhasingF = 12, 24, 5
	medium.Horizon, medium.MinElevationDeg = 192, 15

	for _, sc := range []struct {
		name string
		cfg  Config
	}{{"small", small}, {"medium", medium}} {
		sats, err := orbit.WalkerDelta(sc.cfg.Walker)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]referenceSlot, sc.cfg.Horizon)
		for slot := range ref {
			ref[slot] = buildReferenceSlot(sc.cfg, slot, sats, sites, eo)
		}
		var all []Endpoint
		for i := range sites {
			all = append(all, Endpoint{Kind: EndpointGround, Index: i})
		}
		for i := range eo {
			all = append(all, Endpoint{Kind: EndpointSpace, Index: i})
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			p, err := NewProvider(sc.cfg, sites, eo, all...)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			checkReferenceBuild(t, fmt.Sprintf("%s, GOMAXPROCS %d", sc.name, procs), p, ref, len(sites), len(eo))
		}
	}
}

func checkReferenceBuild(t *testing.T, name string, p *Provider, ref []referenceSlot, numSites, numEO int) {
	t.Helper()
	bits := func(v geo.Vec3) [3]uint64 {
		return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
	}
	for slot, r := range ref {
		for sat := range r.ecef {
			if bits(p.SatPosECEF(slot, sat)) != bits(r.ecef[sat]) || p.Sunlit(slot, sat) != r.sunlit[sat] {
				t.Fatalf("%s, slot %d, sat %d: provider %v sunlit %v, reference %v sunlit %v",
					name, slot, sat, p.SatPosECEF(slot, sat), p.Sunlit(slot, sat), r.ecef[sat], r.sunlit[sat])
			}
		}
		for i := 0; i < numEO; i++ {
			e := Endpoint{Kind: EndpointSpace, Index: i}
			got, err := p.EndpointECEF(e, slot)
			if err != nil {
				t.Fatal(err)
			}
			if bits(got) != bits(r.eoECEF[i]) {
				t.Fatalf("%s, slot %d, EO %d: provider %v, reference %v", name, slot, i, got, r.eoECEF[i])
			}
			if p.visSpace[i] == nil {
				t.Fatalf("%s: EO %d not frozen", name, i)
			}
			checkVisible(t, p, e, slot, r.visSpace[i])
		}
		for i := 0; i < numSites; i++ {
			e := Endpoint{Kind: EndpointGround, Index: i}
			if p.visGround[i] == nil {
				t.Fatalf("%s: site %d not frozen", name, i)
			}
			checkVisible(t, p, e, slot, r.visGround[i])
		}
	}
}

func checkVisible(t *testing.T, p *Provider, e Endpoint, slot int, want []int) {
	t.Helper()
	got, err := p.VisibleSats(e, slot)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("endpoint %+v slot %d: provider sees %v, reference %v", e, slot, got, want)
	}
}

// fullConfig is the paper's Shell-I preset.
func fullConfig() Config { return DefaultConfig(testEpoch) }

// TestEveryPlaneIsOneCircle: the planes the visibility scan prunes by
// tile the satellites in order, and every satellite of a plane is on a
// circular orbit with the plane's radius and normal — its position in
// sampled slots lies on that circle to within a micrometre. An eccentric
// or misgrouped orbit reaching NewProvider fails here.
func TestEveryPlaneIsOneCircle(t *testing.T) {
	multi := smallConfig()
	second := multi.Walker
	second.Planes, second.SatsPerPlane, second.AltitudeKm, second.InclinationDeg, second.PhasingF = 4, 6, 1100, 70, 1
	multi.ExtraShells = []orbit.WalkerConfig{second}
	for _, sc := range []struct {
		name string
		cfg  Config
	}{{"small", smallConfig()}, {"full", fullConfig()}, {"two shells", multi}} {
		p, err := NewProvider(sc.cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for _, pl := range p.planes {
			if pl.lo != next || pl.hi <= pl.lo {
				t.Fatalf("%s: plane [%d, %d) does not follow satellite %d", sc.name, pl.lo, pl.hi, next)
			}
			next = pl.hi
			for sat := pl.lo; sat < pl.hi; sat++ {
				e := p.sats[sat].Elements
				if e.Eccentricity != 0 || e.SemiMajorKm != pl.radiusKm || !e.Epoch.Equal(pl.epoch) {
					t.Fatalf("%s: satellite %d (e %v, a %v, epoch %v) is not on its plane's circle of radius %v from %v",
						sc.name, sat, e.Eccentricity, e.SemiMajorKm, e.Epoch, pl.radiusKm, pl.epoch)
				}
				for slot := 0; slot < p.Horizon(); slot += 7 {
					pos := p.SatPosECEF(slot, sat)
					n := p.frames[slot].toECEF.Z(pl.normal)
					if off, dr := math.Abs(pos.Dot(n)), math.Abs(pos.Norm()-pl.radiusKm); off > 1e-6 || dr > 1e-6 {
						t.Fatalf("%s: satellite %d at slot %d is %v km off its plane, %v km off its radius",
							sc.name, sat, slot, off, dr)
					}
				}
			}
		}
		if next != p.NumSats() {
			t.Fatalf("%s: planes cover %d of %d satellites", sc.name, next, p.NumSats())
		}
	}
}

// TestPlanePruningCutsRangeChecks counts the range checks the visibility
// scan makes at the paper-scale preset — the satellites of every plane
// beyond does not skip — for the 1 761 paper sites and the EO fleet over
// the 384 slots. Unpruned, every (endpoint, slot) checks all 1 584
// satellites; pruned, ground sites check 18.5 % of them and EO
// satellites 18.0 %.
func TestPlanePruningCutsRangeChecks(t *testing.T) {
	all, err := grid.TriangularSites(5)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := grid.FilterByGDP(all, 1761)
	if err != nil {
		t.Fatal(err)
	}
	eo, err := orbit.SyntheticEOFleet(orbit.DefaultEOFleetConfig(testEpoch))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProvider(fullConfig(), sites, eo)
	if err != nil {
		t.Fatal(err)
	}
	checks := func(obs geo.Vec3, f *slotFrame, reach float64) int {
		n := 0
		for _, pl := range p.planes {
			if !pl.beyond(obs, f.toECEF, reach) {
				n += pl.hi - pl.lo
			}
		}
		return n
	}
	var ground, space int
	for slot := 0; slot < p.Horizon(); slot++ {
		f := &p.frames[slot]
		for _, obs := range p.siteECEF {
			ground += checks(obs, f, p.maxSlantKm)
		}
		for i := range p.eoProps {
			obs, _ := f.position(&p.eoProps[i])
			space += checks(obs, f, p.cfg.MaxEORangeKm)
		}
	}
	for _, c := range []struct {
		name             string
		checks           int
		endpoints        int
		measured, factor float64
	}{
		{"ground", ground, len(sites), 0.1849, 0.19},
		{"EO", space, len(eo), 0.1801, 0.19},
	} {
		frac := float64(c.checks) / float64(p.Horizon()*c.endpoints*p.NumSats())
		if frac > c.factor {
			t.Errorf("%s: the scan checks %.4f of the unpruned range checks (measured %.4f), want at most %.2f",
				c.name, frac, c.measured, c.factor)
		}
	}
}

func TestVisibleSatsConcurrentAccess(t *testing.T) {
	// The visibility cache must be safe for concurrent readers (bench
	// harnesses share one provider across runs).
	p := newSmallProvider(t, []grid.Site{
		{ID: 0, LatDeg: 40.7, LonDeg: -74.0},
		{ID: 1, LatDeg: 34.1, LonDeg: -118.2},
	}, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for slot := 0; slot < p.Horizon(); slot++ {
				for site := 0; site < 2; site++ {
					if _, err := p.VisibleSats(Endpoint{Kind: EndpointGround, Index: site}, slot); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFreezeMatchesLazy verifies the frozen fast path returns exactly
// what the lazy memoised path computes, for both endpoint kinds, across
// every slot. The lazy queries run slot by slot, so later endpoints reuse
// the slot's position row and, past lazyRows slots, rows are recycled.
func TestFreezeMatchesLazy(t *testing.T) {
	sites := []grid.Site{
		{ID: 0, LatDeg: 40.7, LonDeg: -74.0},
		{ID: 1, LatDeg: 89.0, LonDeg: 0}, // out of coverage: empty lists
	}
	eo, err := orbit.SyntheticEOFleet(orbit.EOFleetConfig{
		Count: 4, MinAltitudeKm: 475, MaxAltitudeKm: 525, Seed: 3, Epoch: testEpoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	lazy := newSmallProvider(t, sites, eo)
	endpoints := []Endpoint{
		{Kind: EndpointGround, Index: 0},
		{Kind: EndpointGround, Index: 1},
		{Kind: EndpointSpace, Index: 0},
		{Kind: EndpointSpace, Index: 3},
	}
	frozen, err := NewProvider(smallConfig(), sites, eo, endpoints...)
	if err != nil {
		t.Fatal(err)
	}
	if frozen.Horizon() <= lazyRows {
		t.Fatalf("horizon %d does not recycle the %d lazy rows", frozen.Horizon(), lazyRows)
	}

	if frozen.visGround[0] == nil || frozen.visGround[1] == nil || frozen.visSpace[0] == nil || frozen.visSpace[3] == nil {
		t.Fatal("an endpoint named to NewProvider was not frozen")
	}
	if lazy.visGround != nil || lazy.visSpace != nil {
		t.Fatal("the lazy provider froze an endpoint")
	}
	for slot := 0; slot < frozen.Horizon(); slot++ {
		for _, e := range endpoints {
			want, err := lazy.VisibleSats(e, slot)
			if err != nil {
				t.Fatal(err)
			}
			got, err := frozen.VisibleSats(e, slot)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("endpoint %+v slot %d: frozen %v, lazy %v", e, slot, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("endpoint %+v slot %d differs at %d", e, slot, i)
				}
			}
		}
	}
}

// TestFreezeSubsetKeepsLazyFallback: freezing only some endpoints must
// leave the rest on the (still correct) memoised path.
func TestFreezeSubsetKeepsLazyFallback(t *testing.T) {
	sites := []grid.Site{
		{ID: 0, LatDeg: 40.7, LonDeg: -74.0},
		{ID: 1, LatDeg: 34.1, LonDeg: -118.2},
	}
	hot := Endpoint{Kind: EndpointGround, Index: 0}
	cold := Endpoint{Kind: EndpointGround, Index: 1}
	// Naming an endpoint twice freezes it once.
	p, err := NewProvider(smallConfig(), sites, nil, hot, hot)
	if err != nil {
		t.Fatal(err)
	}
	if p.visGround[hot.Index] == nil || p.visGround[cold.Index] != nil {
		t.Fatalf("frozen tables: hot=%v cold=%v", p.visGround[hot.Index] != nil, p.visGround[cold.Index] != nil)
	}
	for _, e := range []Endpoint{hot, cold} {
		if _, err := p.VisibleSats(e, 5); err != nil {
			t.Fatalf("endpoint %+v: %v", e, err)
		}
	}
}

func TestFreezeErrors(t *testing.T) {
	sites := []grid.Site{{ID: 0}}
	for _, tt := range []struct {
		name string
		eps  []Endpoint
	}{
		{"out-of-range site", []Endpoint{{Kind: EndpointGround, Index: 9}}},
		{"EO endpoint without a fleet", []Endpoint{{Kind: EndpointSpace, Index: 0}}},
		{"unknown kind", []Endpoint{{Kind: 0, Index: 0}}},
		{"valid site before a bad one", []Endpoint{{Kind: EndpointGround, Index: 0}, {Kind: EndpointGround, Index: 9}}},
	} {
		if p, err := NewProvider(smallConfig(), sites, nil, tt.eps...); err == nil || p != nil {
			t.Errorf("%s: NewProvider = %v, %v; want nil and an error", tt.name, p, err)
		}
	}
}

// TestFrozenProviderConcurrentAccess mirrors the lazy-path concurrency
// test on the lock-free frozen tables (meaningful under -race).
func TestFrozenProviderConcurrentAccess(t *testing.T) {
	p, err := NewProvider(smallConfig(), []grid.Site{
		{ID: 0, LatDeg: 40.7, LonDeg: -74.0},
		{ID: 1, LatDeg: 34.1, LonDeg: -118.2},
	}, nil, Endpoint{Kind: EndpointGround, Index: 0}, Endpoint{Kind: EndpointGround, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for slot := 0; slot < p.Horizon(); slot++ {
				for site := 0; site < 2; site++ {
					if _, err := p.VisibleSats(Endpoint{Kind: EndpointGround, Index: site}, slot); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMultiShellProvider(t *testing.T) {
	cfg := smallConfig()
	second := cfg.Walker
	second.Planes = 4
	second.SatsPerPlane = 6
	second.AltitudeKm = 1100
	second.InclinationDeg = 70
	second.PhasingF = 1
	cfg.ExtraShells = []orbit.WalkerConfig{second}

	p, err := NewProvider(cfg, []grid.Site{{ID: 0, LatDeg: 40.7, LonDeg: -74.0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSats := 96 + 24
	if p.NumSats() != wantSats {
		t.Fatalf("NumSats = %d, want %d", p.NumSats(), wantSats)
	}
	// Satellite IDs dense across shells.
	for i, s := range p.Satellites() {
		if s.ID != i {
			t.Fatalf("satellite %d has ID %d", i, s.ID)
		}
	}
	// ISLs never cross shells: shell-1 sats (0-95) only neighbour 0-95,
	// shell-2 sats (96-119) only 96-119.
	for sat := 0; sat < wantSats; sat++ {
		for _, n := range p.ISLNeighbors(sat) {
			if (sat < 96) != (n < 96) {
				t.Fatalf("ISL %d-%d crosses shells", sat, n)
			}
		}
	}
	// Shell-2 satellites orbit at their own altitude.
	alt := p.SatPosECEF(0, 96).Norm() - geo.EarthRadiusKm
	if math.Abs(alt-1100) > 1 {
		t.Errorf("shell-2 altitude = %v, want 1100", alt)
	}
	// Ground visibility can reach the higher shell (pre-filter must use
	// the tallest shell's slant range).
	seenHigh := false
	for slot := 0; slot < p.Horizon() && !seenHigh; slot++ {
		vis, err := p.VisibleSats(Endpoint{Kind: EndpointGround, Index: 0}, slot)
		if err != nil {
			t.Fatal(err)
		}
		for _, sat := range vis {
			if sat >= 96 {
				seenHigh = true
			}
		}
	}
	if !seenHigh {
		t.Error("the 70-degree 1100 km shell is never visible from New York; slant pre-filter too tight?")
	}
}

func TestMultiShellValidation(t *testing.T) {
	cfg := smallConfig()
	bad := cfg.Walker
	bad.Planes = 0
	cfg.ExtraShells = []orbit.WalkerConfig{bad}
	if _, err := NewProvider(cfg, nil, nil); err == nil {
		t.Error("invalid extra shell should error")
	}
}
