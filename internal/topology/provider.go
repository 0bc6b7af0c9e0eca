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
	"sync"
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
	// PrecomputeVisibility eagerly freezes USL visibility for every
	// endpoint at construction (see Freeze), removing the visibility
	// cache mutex from the hot loop. Costs O(endpoints × horizon × sats)
	// up front — callers with many endpoints but few active pairs should
	// instead Freeze just the endpoints they will query.
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

	// satECEF[slot][sat] and eoECEF[slot][eo] are Earth-fixed positions
	// and sunlit[slot][sat] the eclipse flag, taken from the inertial
	// position while it is at hand: nothing routes on ECI, so no ECI
	// table is kept. Each table's rows share one backing array.
	satECEF [][]geo.Vec3
	eoECEF  [][]geo.Vec3
	sunlit  [][]bool

	siteECEF []geo.Vec3

	islNeighbors [][]int
	islCSR       *CSR
	maxSlantKm   float64

	// visGround[site] and visSpace[eo] are frozen per-slot visibility
	// tables (see Freeze): non-nil means every slot for that endpoint is
	// precomputed and VisibleSats reads it lock-free. Endpoints that were
	// never frozen fall back to the mutex-guarded memo cache below.
	visGround [][][]int
	visSpace  [][][]int

	visMu    sync.RWMutex
	visCache map[visKey][]int
}

// emptyVis marks a frozen slot with no visible satellites: a non-nil
// sentinel, so the lock-free read path can distinguish "computed empty"
// from "not precomputed".
var emptyVis = []int{}

type visKey struct {
	kind  EndpointKind
	index int
	slot  int
}

// NewProvider builds the provider, propagating every satellite (and EO
// satellite) across all slots and precomputing sunlit flags and the +Grid
// ISL fabric. sites and eoFleet may be empty if the workload does not use
// the corresponding endpoint kind.
func NewProvider(cfg Config, sites []grid.Site, eoFleet []orbit.Satellite) (*Provider, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shells := append([]orbit.WalkerConfig{cfg.Walker}, cfg.ExtraShells...)
	var sats []orbit.Satellite
	var islNeighbors [][]int
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
		sats = append(sats, shellSats...)
	}

	p := &Provider{
		cfg:      cfg,
		sats:     sats,
		sites:    append([]grid.Site(nil), sites...),
		eo:       append([]orbit.Satellite(nil), eoFleet...),
		visCache: make(map[visKey][]int),
	}

	p.siteECEF = make([]geo.Vec3, len(p.sites))
	for i, s := range p.sites {
		p.siteECEF[i] = geo.LLAToECEF(s.LLA())
	}

	satProps := propagators(sats)
	eoProps := propagators(p.eo)
	p.satECEF = slotRows[geo.Vec3](cfg.Horizon, len(sats))
	p.eoECEF = slotRows[geo.Vec3](cfg.Horizon, len(p.eo))
	p.sunlit = slotRows[bool](cfg.Horizon, len(sats))
	epoch := cfg.Walker.Epoch
	// Every (slot, satellite) position is independent: fan the slots out,
	// each worker filling the per-slot rows of its own slots only.
	forEachSlot(0, cfg.Horizon, func(t int) {
		at := epoch.Add(time.Duration(float64(t) * cfg.SlotSeconds * float64(time.Second)))
		toECEF := geo.EarthRotation(geo.GMST(at))
		sunDir := geo.SunDirectionECI(at)

		ecef, lit := p.satECEF[t], p.sunlit[t]
		for i := range satProps {
			pos := satProps[i].PositionECI(at)
			ecef[i] = toECEF.Z(pos)
			lit[i] = !geo.InUmbra(pos, sunDir)
		}
		eoPos := p.eoECEF[t]
		for i := range eoProps {
			eoPos[i] = toECEF.Z(eoProps[i].PositionECI(at))
		}
	})

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
		if err := p.Freeze(0); err != nil {
			return nil, err
		}
	}
	return p, nil
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

// Sites returns the ground-site list (do not modify).
func (p *Provider) Sites() []grid.Site { return p.sites }

// SatPosECEF returns the Earth-fixed position of a satellite in a slot.
func (p *Provider) SatPosECEF(slot, sat int) geo.Vec3 { return p.satECEF[slot][sat] }

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
		return p.eoECEF[slot][e.Index], nil
	default:
		return geo.Vec3{}, fmt.Errorf("topology: unknown endpoint kind %d", e.Kind)
	}
}

// SunlitVector returns the satellite's sunlit flags across all slots.
func (p *Provider) SunlitVector(sat int) []bool {
	out := make([]bool, p.cfg.Horizon)
	for t := 0; t < p.cfg.Horizon; t++ {
		out[t] = p.sunlit[t][sat]
	}
	return out
}

// ISLNeighbors returns the static +Grid neighbours of a satellite.
// Callers must not modify the returned slice.
func (p *Provider) ISLNeighbors(sat int) []int { return p.islNeighbors[sat] }

// VisibleSats returns the broadband satellites that endpoint e can reach
// with a USL in the given slot: above the minimum elevation for ground
// users, or within MaxEORangeKm with clear line of sight for space
// users. Frozen endpoints (see Freeze) are served lock-free from the
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

	visible := p.computeVisible(e, slot)

	p.visMu.Lock()
	p.visCache[key] = visible
	p.visMu.Unlock()
	return visible, nil
}

// computeVisible is the pure visibility computation behind VisibleSats
// and Freeze. Endpoint and slot must already be validated.
func (p *Provider) computeVisible(e Endpoint, slot int) []int {
	var visible []int
	if e.Kind == EndpointGround {
		obs := p.siteECEF[e.Index]
		maxSq := p.maxSlantKm * p.maxSlantKm
		for sat, pos := range p.satECEF[slot] {
			if pos.Sub(obs).NormSq() > maxSq {
				continue
			}
			if geo.ElevationDeg(obs, pos) >= p.cfg.MinElevationDeg {
				visible = append(visible, sat)
			}
		}
	} else {
		obs := p.eoECEF[slot][e.Index]
		maxSq := p.cfg.MaxEORangeKm * p.cfg.MaxEORangeKm
		for sat, pos := range p.satECEF[slot] {
			if pos.Sub(obs).NormSq() > maxSq {
				continue
			}
			if geo.LineOfSightClear(obs, pos, 0) {
				visible = append(visible, sat)
			}
		}
	}
	return visible
}

// Freeze precomputes the per-slot visibility of the given endpoints
// (every site and EO satellite when none are named), fanning the slots
// out over a worker pool (workers <= 0 picks GOMAXPROCS). Frozen
// endpoints are immutable afterwards and VisibleSats serves them without
// taking a lock — the hot-loop synchronization point disappears for
// every endpoint the workload actually routes between. Endpoints not
// frozen keep the lazy mutex-guarded cache, which stays correct (if
// slower) under concurrency.
//
// Freeze is part of construction: call it before the provider is shared
// across goroutines. Already-frozen endpoints are skipped, so repeated
// calls with overlapping endpoint sets are cheap.
//
// Together with the CSR flattening of the static ISL grid (ISLCSR,
// built at NewProvider), frozen visibility tables are what the routing
// fast path (netstate.FlatView) consumes: the CSR supplies the static
// edges as contiguous arrays and the frozen tables supply the per-slot
// USL endpoint edges, both readable without locks or interface calls.
func (p *Provider) Freeze(workers int, endpoints ...Endpoint) error {
	if len(endpoints) == 0 {
		endpoints = make([]Endpoint, 0, len(p.sites)+len(p.eo))
		for i := range p.sites {
			endpoints = append(endpoints, Endpoint{Kind: EndpointGround, Index: i})
		}
		for i := range p.eo {
			endpoints = append(endpoints, Endpoint{Kind: EndpointSpace, Index: i})
		}
	}
	if p.visGround == nil {
		p.visGround = make([][][]int, len(p.sites))
	}
	if p.visSpace == nil {
		p.visSpace = make([][][]int, len(p.eo))
	}
	todo := make([]Endpoint, 0, len(endpoints))
	for _, e := range endpoints {
		switch e.Kind {
		case EndpointGround:
			if e.Index < 0 || e.Index >= len(p.sites) {
				return fmt.Errorf("topology: freeze: ground site %d outside [0,%d)", e.Index, len(p.sites))
			}
			if p.visGround[e.Index] == nil {
				p.visGround[e.Index] = make([][]int, p.cfg.Horizon)
				todo = append(todo, e)
			}
		case EndpointSpace:
			if e.Index < 0 || e.Index >= len(p.eo) {
				return fmt.Errorf("topology: freeze: EO index %d outside [0,%d)", e.Index, len(p.eo))
			}
			if p.visSpace[e.Index] == nil {
				p.visSpace[e.Index] = make([][]int, p.cfg.Horizon)
				todo = append(todo, e)
			}
		default:
			return fmt.Errorf("topology: freeze: unknown endpoint kind %d", e.Kind)
		}
	}
	if len(todo) == 0 {
		return nil
	}

	// Fan out across slots: each (endpoint, slot) cell is written by
	// exactly one worker, into tables allocated above — no locking.
	forEachSlot(workers, p.cfg.Horizon, func(slot int) {
		for _, e := range todo {
			vis := p.computeVisible(e, slot)
			if vis == nil {
				vis = emptyVis
			}
			if e.Kind == EndpointGround {
				p.visGround[e.Index][slot] = vis
			} else {
				p.visSpace[e.Index][slot] = vis
			}
		}
	})
	return nil
}

// forEachSlot calls fn(slot) for every slot in [0, horizon) from a pool
// of workers (workers <= 0 picks GOMAXPROCS) and returns when all calls
// have. Each worker takes one contiguous range of slots — the per-slot
// work is uniform, and one hand-off per worker instead of one per slot
// matters when a slot is tens of microseconds of work. Every slot is
// handled by exactly one worker, so fn may write per-slot data without
// locking; nothing is reduced across slots, so the result does not
// depend on the schedule.
func forEachSlot(workers, horizon int, fn func(slot int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk := (horizon + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < horizon; lo += chunk {
		hi := min(lo+chunk, horizon)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for slot := lo; slot < hi; slot++ {
				fn(slot)
			}
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
