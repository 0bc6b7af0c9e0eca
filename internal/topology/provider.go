// Package topology builds the time-slotted view of the LSN that the
// paper's system model (§III-A) prescribes: per-slot satellite positions,
// sunlit/umbra flags, the static +Grid inter-satellite link fabric, and
// per-slot user-satellite link (USL) visibility for both ground users and
// space users (Earth-observation satellites).
package topology

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spacebooking/internal/geo"
	"spacebooking/internal/grid"
	"spacebooking/internal/orbit"
)

// Config parameterises the dynamic-topology provider. Defaults mirroring
// the paper's §VI-A are available via DefaultConfig.
type Config struct {
	Walker orbit.WalkerConfig
	// ExtraShells adds further Walker shells (real constellations deploy
	// several, e.g. Starlink's 53.2°/70°/97.6° shells). Each shell gets
	// its own +Grid ISL fabric; there are no inter-shell ISLs — traffic
	// crosses shells only via the ground segment, matching deployed
	// systems. Satellite IDs are assigned shell-major.
	ExtraShells []orbit.WalkerConfig
	// SlotSeconds is the length of one time slot (60 s in the paper).
	SlotSeconds float64
	// Horizon is the number of slots simulated (384 = 4 orbital periods).
	Horizon int
	// ISLCapacityMbps and USLCapacityMbps are per-direction link
	// capacities (20 Gbps and 4 Gbps in the paper).
	ISLCapacityMbps float64
	USLCapacityMbps float64
	// MinElevationDeg is the minimum elevation for a ground USL
	// (Starlink terminals use 25°).
	MinElevationDeg float64
	// MaxEORangeKm is the maximum slant range for a space-user USL
	// between an EO satellite and a broadband satellite.
	MaxEORangeKm float64
	// PrecomputeVisibility freezes USL visibility for every endpoint at
	// construction (see NewProvider), removing the visibility cache mutex
	// from the hot loop. Costs O(endpoints × horizon × sats) up front —
	// callers with many endpoints but few active pairs should instead name
	// to NewProvider just the endpoints they will query.
	PrecomputeVisibility bool
}

// DefaultConfig returns the paper's evaluation parameters on the
// Starlink Shell-I constellation.
func DefaultConfig(epoch time.Time) Config {
	return Config{
		Walker:          orbit.StarlinkShell1(epoch),
		SlotSeconds:     60,
		Horizon:         96 * 4,
		ISLCapacityMbps: 20000,
		USLCapacityMbps: 4000,
		MinElevationDeg: 25,
		MaxEORangeKm:    1500,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Walker.Validate(); err != nil {
		return err
	}
	for i, shell := range c.ExtraShells {
		if err := shell.Validate(); err != nil {
			return fmt.Errorf("topology: extra shell %d: %w", i, err)
		}
	}
	switch {
	case c.SlotSeconds <= 0:
		return fmt.Errorf("topology: slot length must be positive, got %v", c.SlotSeconds)
	case c.Horizon <= 0:
		return fmt.Errorf("topology: horizon must be positive, got %d", c.Horizon)
	case c.ISLCapacityMbps <= 0 || c.USLCapacityMbps <= 0:
		return fmt.Errorf("topology: link capacities must be positive (ISL %v, USL %v)",
			c.ISLCapacityMbps, c.USLCapacityMbps)
	case c.MinElevationDeg < 0 || c.MinElevationDeg >= 90:
		return fmt.Errorf("topology: min elevation %v outside [0,90)", c.MinElevationDeg)
	case c.MaxEORangeKm <= 0:
		return fmt.Errorf("topology: max EO range must be positive, got %v", c.MaxEORangeKm)
	}
	return nil
}

// EndpointKind distinguishes ground users from space users.
type EndpointKind int

const (
	// EndpointGround is a terrestrial user at a tiling site.
	EndpointGround EndpointKind = iota + 1
	// EndpointSpace is an Earth-observation satellite acting as a user.
	EndpointSpace
)

// Name is the kind as the booking API and the decision log spell it:
// "space", or "ground" for anything else.
func (k EndpointKind) Name() string {
	if k == EndpointSpace {
		return "space"
	}
	return "ground"
}

// ParseEndpointKind inverts Name.
func ParseEndpointKind(name string) (EndpointKind, error) {
	switch name {
	case "ground":
		return EndpointGround, nil
	case "space":
		return EndpointSpace, nil
	}
	return 0, fmt.Errorf("unknown endpoint kind %q (want ground or space)", name)
}

// Endpoint identifies a request source or destination: a ground site
// (index into the provider's site list) or an EO satellite (index into
// the provider's EO fleet).
type Endpoint struct {
	Kind  EndpointKind
	Index int
}

// Provider precomputes and serves the per-slot state of the LSN.
// It is safe for concurrent read use after construction.
type Provider struct {
	cfg   Config
	sats  []orbit.Satellite
	sites []grid.Site
	eo    []orbit.Satellite

	// No position is stored: admission reads only the sunlit flags and
	// the frozen visibility lists, both derived from each slot's positions
	// while the construction pass has them at hand, and equal to what the
	// exact positions give (see slotRow). frames[slot] keeps what a
	// position needs besides the orbit, so SatPosECEF and EndpointECEF
	// recompute one bit for bit (see slotFrame.position).
	// sunlit[slot][sat] is the eclipse flag; its rows share one backing
	// array.
	satProps []orbit.Propagator
	eoProps  []orbit.Propagator
	frames   []slotFrame
	sunlit   [][]bool

	siteECEF []geo.Vec3

	islNeighbors [][]int
	islCSR       *CSR
	maxSlantKm   float64
	// planes lists every shell's orbital planes in satellite order; the
	// visibility scan skips those whose orbit is out of reach.
	planes []orbitPlane

	// visGround[site] and visSpace[eo] are frozen per-slot visibility
	// tables (see NewProvider): non-nil means every slot for that endpoint
	// is precomputed and VisibleSats reads it lock-free. Endpoints that
	// were never frozen fall back to the mutex-guarded memo cache below.
	visGround [][][]int
	visSpace  [][][]int

	visMu    sync.RWMutex
	visCache map[visKey][]int

	// lazy holds the position rows of the last slots a visibility cache
	// miss filled, so misses in one slot — a booking's source and
	// destination, bookings over the same window — fill it once.
	// Guarded by lazyMu, which a miss holds while it reads its row.
	lazyMu   sync.Mutex
	lazy     [lazyRows]slotRow
	lazyNext int
}

// lazyRows is how many slots' positions the lazy visibility path keeps:
// enough for the windows (up to ten slots in the paper's workload) of the
// bookings arriving around one clock slot.
const lazyRows = 16

// slotRow is one slot's satellite positions as the visibility scan reads
// them. cheap[sat] is the Earth-fixed position from the circular-orbit
// shortcut (orbit.Propagator.CircularECI); a test decides from it unless
// it falls within cheapMarginKm of a threshold. exact[sat] holds
// slotFrame.position's (ECEF, ECI) pair for the satellites such a test
// needed, valid where stamp[sat] == slot+1; both stay nil until the first.
type slotRow struct {
	slot   int
	cheap  []geo.Vec3
	exact  [][2]geo.Vec3
	stamp  []int
	exacts int // exact propagations made, for the work-count test
}

// cheapMarginKm is how far from a threshold (the shadow cylinder, the
// range limit) a shortcut position must lie for a test to decide from it.
// The shortcut is within cheapMarginKm/1000 of the exact position over
// a hundred horizons (TestCheapPositionWithinMargin measures 6.9e-10 km), so
// a decided test gives the exact position's verdict. cheapMarginDeg is
// the elevation mask's margin: a position error ε moves the elevation seen
// from a ground site at least 100 km away by under ε/100 rad.
const (
	cheapMarginKm  = 1e-3
	cheapMarginDeg = 1e-6
)

// emptyVis marks a frozen slot with no visible satellites: a non-nil
// sentinel, so the lock-free read path can distinguish "computed empty"
// from "not precomputed".
var emptyVis = []int{}

type visKey struct {
	kind  EndpointKind
	index int
	slot  int
}

// slotFrame is what one slot contributes to a position: its instant and
// the Earth rotation at that instant.
type slotFrame struct {
	at     time.Time
	toECEF geo.Rotation
}

func newSlotFrame(cfg Config, slot int) slotFrame {
	at := cfg.Walker.Epoch.Add(time.Duration(float64(slot) * cfg.SlotSeconds * float64(time.Second)))
	return slotFrame{at: at, toECEF: geo.EarthRotation(geo.GMST(at))}
}

// position is the one place an exact Earth-fixed position is made:
// every on-demand reader, and the construction pass wherever a shortcut
// position lies too near a threshold, call it with the same propagator
// and frame, so the sunlit flags and visibility lists are the ones these
// positions give. The inertial position comes along for the eclipse test.
func (f *slotFrame) position(prop *orbit.Propagator) (ecef, eci geo.Vec3) {
	eci = prop.PositionECI(f.at)
	return f.toECEF.Z(eci), eci
}

// NewProvider builds the provider: one pass over the slots places every
// satellite, derives the sunlit flags and freezes the visibility of the
// endpoints named in freeze (of every site and EO satellite when
// Config.PrecomputeVisibility is set), then drops the positions. It also
// builds the +Grid ISL fabric. sites and eoFleet may be empty if the
// workload does not use the corresponding endpoint kind.
//
// VisibleSats serves a frozen endpoint lock-free from its precomputed
// lists, so the hot-loop synchronisation point disappears for every
// endpoint the workload routes between; an endpoint not frozen keeps the
// lazy mutex-guarded cache, which stays correct (if slower) under
// concurrency. Together with the CSR of the static ISL grid (ISLCSR),
// the frozen lists are what the routing fast path (netstate.FlatView)
// reads.
func NewProvider(cfg Config, sites []grid.Site, eoFleet []orbit.Satellite, freeze ...Endpoint) (*Provider, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shells := append([]orbit.WalkerConfig{cfg.Walker}, cfg.ExtraShells...)
	var sats []orbit.Satellite
	var islNeighbors [][]int
	var planes []orbitPlane
	for _, shell := range shells {
		shellSats, err := orbit.WalkerDelta(shell)
		if err != nil {
			return nil, err
		}
		offset := len(sats)
		grid := buildPlusGrid(shell)
		for i := range shellSats {
			shellSats[i].ID += offset
			neighbors := make([]int, len(grid[i]))
			for j, n := range grid[i] {
				neighbors[j] = n + offset
			}
			islNeighbors = append(islNeighbors, neighbors)
		}
		for lo := 0; lo < len(shellSats); lo += shell.SatsPerPlane {
			e := shellSats[lo].Elements
			incl, raan := geo.NewRotation(geo.DegToRad(e.InclinationDeg)), geo.NewRotation(geo.DegToRad(e.RAANDeg))
			planes = append(planes, orbitPlane{lo: offset + lo, hi: offset + lo + shell.SatsPerPlane,
				normal: raan.Z(incl.X(geo.Vec3{Z: 1})), radiusKm: e.SemiMajorKm, epoch: e.Epoch})
		}
		sats = append(sats, shellSats...)
	}

	p := &Provider{
		cfg:      cfg,
		sats:     sats,
		sites:    append([]grid.Site(nil), sites...),
		eo:       append([]orbit.Satellite(nil), eoFleet...),
		satProps: propagators(sats),
		eoProps:  propagators(eoFleet),
		frames:   make([]slotFrame, cfg.Horizon),
		sunlit:   slotRows[bool](cfg.Horizon, len(sats)),
		planes:   planes,
		visCache: make(map[visKey][]int),
	}

	p.siteECEF = make([]geo.Vec3, len(p.sites))
	for i, s := range p.sites {
		p.siteECEF[i] = geo.LLAToECEF(s.LLA())
	}
	for t := range p.frames {
		p.frames[t] = newSlotFrame(cfg, t)
	}

	p.islNeighbors = islNeighbors
	p.islCSR = buildISLCSR(islNeighbors)
	maxAlt := cfg.Walker.AltitudeKm
	for _, shell := range cfg.ExtraShells {
		if shell.AltitudeKm > maxAlt {
			maxAlt = shell.AltitudeKm
		}
	}
	p.maxSlantKm = maxSlantRangeKm(maxAlt, cfg.MinElevationDeg)

	if cfg.PrecomputeVisibility {
		freeze = p.allEndpoints()
	}
	todo, err := p.claim(freeze)
	if err != nil {
		return nil, err
	}
	p.sweep(todo)
	return p, nil
}

// sweep is the per-slot pass. Each worker fills a slot's row of its own,
// derives from it the sunlit flags and the visibility of every endpoint
// in todo, and reuses the row for its next slot: no position outlives the
// pass. It returns how many exact propagations the rows needed.
func (p *Provider) sweep(todo []Endpoint) int {
	var exacts atomic.Int64
	forEachSlot(p.cfg.Horizon, func(lo, hi int) {
		var r slotRow
		var buf []int
		for slot := lo; slot < hi; slot++ {
			p.fillRow(&r, slot, p.sunlit[slot])
			for _, e := range todo {
				buf = p.visible(buf[:0], e, &r)
				vis := emptyVis
				if len(buf) > 0 {
					vis = slices.Clone(buf) // stored at its length, not append's capacity
				}
				if e.Kind == EndpointGround {
					p.visGround[e.Index][slot] = vis
				} else {
					p.visSpace[e.Index][slot] = vis
				}
			}
		}
		exacts.Add(int64(r.exacts))
	})
	return int(exacts.Load())
}

// fillRow makes r slot's row: every satellite's shortcut position and,
// when flags is non-nil, whether it is sunlit. A flag is decided from the
// shortcut unless that lies within cheapMarginKm of the shadow cylinder.
// An eccentric orbit, which has no shortcut, is propagated exactly and
// its exact position stands in for the shortcut, so every verdict on it
// is the exact one.
func (p *Provider) fillRow(r *slotRow, slot int, flags []bool) {
	if r.cheap == nil {
		r.cheap = make([]geo.Vec3, len(p.sats))
	}
	r.slot = slot
	f := &p.frames[slot]
	var sunDir geo.Vec3
	if flags != nil {
		sunDir = geo.SunDirectionECI(f.at)
	}
	for i := range p.planes {
		pl := &p.planes[i]
		dt := f.at.Sub(pl.epoch).Seconds()
		for sat := pl.lo; sat < pl.hi; sat++ {
			eci, ok := p.satProps[sat].CircularECI(dt)
			if !ok {
				_, eci = p.exact(r, sat)
			}
			r.cheap[sat] = f.toECEF.Z(eci)
			if flags == nil {
				continue
			}
			lit, sure := sunlitVerdict(eci, sunDir)
			if !sure {
				_, eci = p.exact(r, sat)
				lit = !geo.InUmbra(eci, sunDir)
			}
			flags[sat] = lit
		}
	}
}

// exact returns sat's exact position in r's slot, propagating it on the
// first call for the slot.
func (p *Provider) exact(r *slotRow, sat int) (ecef, eci geo.Vec3) {
	if r.exact == nil {
		r.exact = make([][2]geo.Vec3, len(p.sats))
		r.stamp = make([]int, len(p.sats))
	}
	if r.stamp[sat] == r.slot+1 {
		return r.exact[sat][0], r.exact[sat][1]
	}
	ecef, eci = p.frames[r.slot].position(&p.satProps[sat])
	r.exact[sat], r.stamp[sat] = [2]geo.Vec3{ecef, eci}, r.slot+1
	r.exacts++
	return ecef, eci
}

// Squared radii of the shadow cylinder's margin band.
const (
	umbraInnerSq = (geo.EarthRadiusKm - cheapMarginKm) * (geo.EarthRadiusKm - cheapMarginKm)
	umbraOuterSq = (geo.EarthRadiusKm + cheapMarginKm) * (geo.EarthRadiusKm + cheapMarginKm)
)

// sunlitVerdict is geo.InUmbra's test, negated, on an inertial position
// within cheapMarginKm/1000 of the exact one: lit is the exact position's
// verdict when sure, and sure is false within cheapMarginKm of the
// shadow cylinder's boundary (the terminator plane or the cylinder wall).
func sunlitVerdict(eci, sunDir geo.Vec3) (lit, sure bool) {
	along := eci.Dot(sunDir)
	if along > cheapMarginKm {
		return true, true
	}
	if along >= -cheapMarginKm {
		return false, false
	}
	perpSq := eci.Sub(sunDir.Scale(along)).NormSq()
	switch {
	case perpSq > umbraOuterSq:
		return true, true
	case perpSq < umbraInnerSq:
		return false, true
	}
	return false, false
}

// propagators returns each satellite's propagator, so the per-orbit
// trigonometry is taken once rather than once per slot.
func propagators(sats []orbit.Satellite) []orbit.Propagator {
	out := make([]orbit.Propagator, len(sats))
	for i, s := range sats {
		out[i] = s.Elements.Propagator()
	}
	return out
}

// slotRows returns horizon rows of n elements carved from one backing
// array: one allocation per table instead of one per slot.
func slotRows[T any](horizon, n int) [][]T {
	flat := make([]T, horizon*n)
	rows := make([][]T, horizon)
	for t := range rows {
		rows[t] = flat[t*n : (t+1)*n : (t+1)*n]
	}
	return rows
}

// buildPlusGrid returns, for each satellite, its +Grid neighbours: the
// previous/next satellite in the same plane and the same-index satellite
// in the two adjacent planes (including across the seam).
func buildPlusGrid(w orbit.WalkerConfig) [][]int {
	id := func(plane, idx int) int {
		return ((plane+w.Planes)%w.Planes)*w.SatsPerPlane + (idx+w.SatsPerPlane)%w.SatsPerPlane
	}
	out := make([][]int, w.Total())
	for plane := 0; plane < w.Planes; plane++ {
		for idx := 0; idx < w.SatsPerPlane; idx++ {
			self := id(plane, idx)
			neighbors := make([]int, 0, 4)
			if w.SatsPerPlane > 1 {
				neighbors = append(neighbors, id(plane, idx+1))
				if w.SatsPerPlane > 2 {
					neighbors = append(neighbors, id(plane, idx-1))
				}
			}
			if w.Planes > 1 {
				neighbors = append(neighbors, id(plane+1, idx))
				if w.Planes > 2 {
					neighbors = append(neighbors, id(plane-1, idx))
				}
			}
			out[self] = neighbors
		}
	}
	return out
}

// maxSlantRangeKm returns the slant range from a ground observer to a
// satellite at the given altitude seen exactly at the minimum elevation.
func maxSlantRangeKm(altKm, minElevDeg float64) float64 {
	re := geo.EarthRadiusKm
	el := geo.DegToRad(minElevDeg)
	// Law of cosines in the Earth-centre/observer/satellite triangle.
	return -re*math.Sin(el) + math.Sqrt(re*re*math.Sin(el)*math.Sin(el)+2*re*altKm+altKm*altKm)
}

// Config returns the provider's configuration.
func (p *Provider) Config() Config { return p.cfg }

// NumSats returns the number of broadband satellites.
func (p *Provider) NumSats() int { return len(p.sats) }

// NumSites returns the number of registered ground sites.
func (p *Provider) NumSites() int { return len(p.sites) }

// NumEO returns the number of space users (EO satellites).
func (p *Provider) NumEO() int { return len(p.eo) }

// Horizon returns the number of simulated slots.
func (p *Provider) Horizon() int { return p.cfg.Horizon }

// Satellites returns the broadband satellite list (do not modify).
func (p *Provider) Satellites() []orbit.Satellite { return p.sats }

// SatPosECEF returns the Earth-fixed position of a satellite in a slot,
// computed on demand: one propagation and one rotation.
func (p *Provider) SatPosECEF(slot, sat int) geo.Vec3 {
	pos, _ := p.frames[slot].position(&p.satProps[sat])
	return pos
}

// Sunlit reports whether a satellite is in sunlight during a slot.
func (p *Provider) Sunlit(slot, sat int) bool { return p.sunlit[slot][sat] }

// EndpointECEF returns the Earth-fixed position of an endpoint in a slot.
func (p *Provider) EndpointECEF(e Endpoint, slot int) (geo.Vec3, error) {
	switch e.Kind {
	case EndpointGround:
		if e.Index < 0 || e.Index >= len(p.sites) {
			return geo.Vec3{}, fmt.Errorf("topology: ground site %d outside [0,%d)", e.Index, len(p.sites))
		}
		return p.siteECEF[e.Index], nil
	case EndpointSpace:
		if e.Index < 0 || e.Index >= len(p.eo) {
			return geo.Vec3{}, fmt.Errorf("topology: EO index %d outside [0,%d)", e.Index, len(p.eo))
		}
		pos, _ := p.frames[slot].position(&p.eoProps[e.Index])
		return pos, nil
	default:
		return geo.Vec3{}, fmt.Errorf("topology: unknown endpoint kind %d", e.Kind)
	}
}

// SunlitRow returns every satellite's sunlit flag in a slot, indexed by
// satellite. Callers must not modify the returned slice.
func (p *Provider) SunlitRow(slot int) []bool { return p.sunlit[slot] }

// ISLNeighbors returns the static +Grid neighbours of a satellite.
// Callers must not modify the returned slice.
func (p *Provider) ISLNeighbors(sat int) []int { return p.islNeighbors[sat] }

// VisibleSats returns the broadband satellites that endpoint e can reach
// with a USL in the given slot: above the minimum elevation for ground
// users, or within MaxEORangeKm with clear line of sight for space
// users. Endpoints frozen by NewProvider are served lock-free from the
// precomputed tables; other endpoints are memoised under a mutex.
// Callers must not modify the returned slice.
func (p *Provider) VisibleSats(e Endpoint, slot int) ([]int, error) {
	if slot < 0 || slot >= p.cfg.Horizon {
		return nil, fmt.Errorf("topology: slot %d outside horizon [0,%d)", slot, p.cfg.Horizon)
	}
	switch e.Kind {
	case EndpointGround:
		if e.Index < 0 || e.Index >= len(p.sites) {
			return nil, fmt.Errorf("topology: ground site %d outside [0,%d)", e.Index, len(p.sites))
		}
		if p.visGround != nil && p.visGround[e.Index] != nil {
			return p.visGround[e.Index][slot], nil
		}
	case EndpointSpace:
		if e.Index < 0 || e.Index >= len(p.eo) {
			return nil, fmt.Errorf("topology: EO index %d outside [0,%d)", e.Index, len(p.eo))
		}
		if p.visSpace != nil && p.visSpace[e.Index] != nil {
			return p.visSpace[e.Index][slot], nil
		}
	default:
		return nil, fmt.Errorf("topology: unknown endpoint kind %d", e.Kind)
	}

	key := visKey{kind: e.Kind, index: e.Index, slot: slot}
	p.visMu.RLock()
	cached, ok := p.visCache[key]
	p.visMu.RUnlock()
	if ok {
		return cached, nil
	}

	p.lazyMu.Lock()
	visible := p.visible(nil, e, p.lazyRow(slot))
	p.lazyMu.Unlock()

	p.visMu.Lock()
	p.visCache[key] = visible
	p.visMu.Unlock()
	return visible, nil
}

// lazyRow returns slot's row from the rows of the last lazyRows slots a
// cache miss asked for, filling the slot over the oldest of them when it
// is not among them. Call with lazyMu held.
func (p *Provider) lazyRow(slot int) *slotRow {
	for i := range p.lazy {
		if r := &p.lazy[i]; r.cheap != nil && r.slot == slot {
			return r
		}
	}
	r := &p.lazy[p.lazyNext]
	p.lazyNext = (p.lazyNext + 1) % lazyRows
	p.fillRow(r, slot, nil)
	return r
}

// visible is the pure visibility computation behind VisibleSats and the
// per-slot pass: it appends to dst, in ascending order, the satellites e
// sees in r's slot. It skips the planes whose orbit never comes within
// range of e, decides each remaining satellite from its shortcut position
// where visTest.cheap is sure, and from its exact position otherwise.
// The endpoint must already be validated.
func (p *Provider) visible(dst []int, e Endpoint, r *slotRow) []int {
	f := &p.frames[r.slot]
	ground := e.Kind == EndpointGround
	var obs geo.Vec3
	reach := p.cfg.MaxEORangeKm
	if ground {
		obs, reach = p.siteECEF[e.Index], p.maxSlantKm
	} else {
		obs, _ = f.position(&p.eoProps[e.Index])
	}
	test := newVisTest(obs, ground, reach, p.cfg.MinElevationDeg)
	visible := dst
	for i := range p.planes {
		pl := &p.planes[i]
		if pl.beyond(obs, f.toECEF, reach) {
			continue
		}
		for sat := pl.lo; sat < pl.hi; sat++ {
			vis, sure := test.cheap(r.cheap[sat])
			if !sure {
				pos, _ := p.exact(r, sat)
				vis = test.exact(pos)
			}
			if vis {
				visible = append(visible, sat)
			}
		}
	}
	return visible
}

// visTest is one observer's visibility test in one slot: a satellite is
// visible within reach of obs and, from a ground site, at or above the
// elevation mask or, from space, with clear line of sight.
type visTest struct {
	obs                    geo.Vec3
	ground                 bool
	maskDeg                float64
	reachSq, nearSq, farSq float64
	// up is obs's unit vector; the cheap test compares the sine of the
	// elevation with those of the mask ± cheapMarginDeg.
	up                 geo.Vec3
	sinAbove, sinBelow float64
}

func newVisTest(obs geo.Vec3, ground bool, reach, maskDeg float64) visTest {
	near, far := reach-cheapMarginKm, reach+cheapMarginKm
	return visTest{
		obs: obs, ground: ground, maskDeg: maskDeg,
		reachSq: reach * reach, nearSq: near * near, farSq: far * far,
		up:       obs.Unit(),
		sinAbove: math.Sin(geo.DegToRad(maskDeg + cheapMarginDeg)),
		sinBelow: math.Sin(geo.DegToRad(maskDeg - cheapMarginDeg)),
	}
}

// exact is the test on an exact Earth-fixed position.
func (v *visTest) exact(pos geo.Vec3) bool {
	if pos.Sub(v.obs).NormSq() > v.reachSq {
		return false
	}
	if v.ground {
		return geo.ElevationDeg(v.obs, pos) >= v.maskDeg
	}
	return geo.LineOfSightClear(v.obs, pos, 0)
}

// cheap is the test on a position within cheapMarginKm/1000 of the exact
// one: vis is the exact position's verdict when sure. It is sure beyond
// reach + cheapMarginKm, and, from a ground site, within reach −
// cheapMarginKm at an elevation more than cheapMarginDeg from the mask.
// Line of sight from space is never decided here.
func (v *visTest) cheap(pos geo.Vec3) (vis, sure bool) {
	los := pos.Sub(v.obs)
	dSq := los.NormSq()
	if dSq > v.farSq {
		return false, true
	}
	if !v.ground || dSq >= v.nearSq {
		return false, false
	}
	// NaN (pos on obs) fails both comparisons and is left to exact.
	switch sinEl := v.up.Dot(los) / math.Sqrt(dSq); {
	case sinEl > v.sinAbove:
		return true, true
	case sinEl < v.sinBelow:
		return false, true
	}
	return false, false
}

// orbitPlane is one orbital plane of a Walker shell: satellites [lo, hi)
// on one circle (Walker orbits are circular) of radius radiusKm about the
// Earth's centre, with inertial unit normal normal, sharing the element
// epoch epoch.
type orbitPlane struct {
	lo, hi   int
	normal   geo.Vec3
	radiusKm float64
	epoch    time.Time
}

// planeMarginKm pads the range a plane is tested against, far beyond the
// float error of a position or of beyond's distance (under 1e-6 km).
const planeMarginKm = 1

// beyond reports whether every point of the plane's circle is farther
// than reach + planeMarginKm from obs, an Earth-fixed position; toECEF is
// the slot's Earth rotation. The circle's closest point to obs lies
// toward obs's projection onto the plane, at squared distance
// |obs|² + r² − 2r·|obs − (obs·n)n|.
func (pl *orbitPlane) beyond(obs geo.Vec3, toECEF geo.Rotation, reach float64) bool {
	h, rr, r := obs.Dot(toECEF.Z(pl.normal)), obs.NormSq(), pl.radiusKm
	limit := reach + planeMarginKm
	return rr+r*r-2*r*math.Sqrt(math.Max(0, rr-h*h)) > limit*limit
}

// allEndpoints lists every site and EO satellite.
func (p *Provider) allEndpoints() []Endpoint {
	all := make([]Endpoint, 0, len(p.sites)+len(p.eo))
	for i := range p.sites {
		all = append(all, Endpoint{Kind: EndpointGround, Index: i})
	}
	for i := range p.eo {
		all = append(all, Endpoint{Kind: EndpointSpace, Index: i})
	}
	return all
}

// claim validates the endpoints, then allocates a per-slot table for each
// distinct one and returns those: the endpoints the pass must fill.
func (p *Provider) claim(endpoints []Endpoint) ([]Endpoint, error) {
	for _, e := range endpoints {
		switch e.Kind {
		case EndpointGround:
			if e.Index < 0 || e.Index >= len(p.sites) {
				return nil, fmt.Errorf("topology: freeze: ground site %d outside [0,%d)", e.Index, len(p.sites))
			}
		case EndpointSpace:
			if e.Index < 0 || e.Index >= len(p.eo) {
				return nil, fmt.Errorf("topology: freeze: EO index %d outside [0,%d)", e.Index, len(p.eo))
			}
		default:
			return nil, fmt.Errorf("topology: freeze: unknown endpoint kind %d", e.Kind)
		}
	}
	if len(endpoints) == 0 {
		return nil, nil
	}
	p.visGround = make([][][]int, len(p.sites))
	p.visSpace = make([][][]int, len(p.eo))
	var todo []Endpoint
	for _, e := range endpoints {
		table := p.visGround
		if e.Kind == EndpointSpace {
			table = p.visSpace
		}
		if table[e.Index] == nil {
			table[e.Index] = make([][]int, p.cfg.Horizon)
			todo = append(todo, e)
		}
	}
	return todo, nil
}

// forEachSlot splits [0, horizon) into one contiguous range per
// GOMAXPROCS worker, calls fn(lo, hi) for each range on its own goroutine
// and returns when all calls have. The per-slot work is uniform, and one
// hand-off per worker instead of one per slot matters when a slot is tens
// of microseconds of work; a worker also allocates its scratch once for
// its whole range. Every slot is handled by exactly one worker, so fn may
// write per-slot data without locking; nothing is reduced across slots,
// so the result does not depend on the schedule.
func forEachSlot(horizon int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	chunk := (horizon + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < horizon; lo += chunk {
		hi := min(lo+chunk, horizon)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// Precomputed reports whether an endpoint's visibility was frozen. Out
// of range endpoints report false.
func (p *Provider) Precomputed(e Endpoint) bool {
	switch e.Kind {
	case EndpointGround:
		return p.visGround != nil && e.Index >= 0 && e.Index < len(p.visGround) && p.visGround[e.Index] != nil
	case EndpointSpace:
		return p.visSpace != nil && e.Index >= 0 && e.Index < len(p.visSpace) && p.visSpace[e.Index] != nil
	default:
		return false
	}
}

// GlobalID maps endpoints into a single dense node-ID space shared with
// satellites: satellites occupy [0, NumSats), ground sites
// [NumSats, NumSats+NumSites), EO satellites after that. Link ledgers key
// on these IDs so reservations are stable across slots.
func (p *Provider) GlobalID(e Endpoint) int {
	switch e.Kind {
	case EndpointGround:
		return len(p.sats) + e.Index
	case EndpointSpace:
		return len(p.sats) + len(p.sites) + e.Index
	default:
		return -1
	}
}
