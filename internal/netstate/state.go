// Package netstate tracks the reservable resources of the LSN across the
// simulation horizon: per-slot, per-link bandwidth ledgers (constraint
// (7b) of the paper) and per-satellite battery ledgers (constraint (7c)),
// plus the congestion/depletion metrics reported in the paper's Fig. 7.
//
// It also provides View, an implicit graph over the per-slot LSN (static
// +Grid ISLs plus the request's user links) that the routing algorithms
// search without materialising adjacency lists.
package netstate

import (
	"fmt"

	"spacebooking/internal/energy"
	"spacebooking/internal/graph"
	"spacebooking/internal/obs"
	"spacebooking/internal/topology"
)

// LinkKey identifies a directed link by the global node IDs of its two
// endpoints (see topology.Provider.GlobalID). Keys are stable across
// slots, so one ledger accumulates a link's reservations over time.
type LinkKey int64

// MakeLinkKey packs two global node IDs into a key.
func MakeLinkKey(from, to int) LinkKey {
	return LinkKey(int64(from)<<32 | int64(uint32(to)))
}

// From returns the transmitting node's global ID.
func (k LinkKey) From() int { return int(int64(k) >> 32) }

// To returns the receiving node's global ID.
func (k LinkKey) To() int { return int(uint32(int64(k))) }

// EnergyConfig holds the power model constants of §VI-A.
type EnergyConfig struct {
	// PanelWatts is the solar panel harvesting power (20 W).
	PanelWatts float64
	// BatteryCapacityJ is ϖ_s (117 kJ).
	BatteryCapacityJ float64
	// Unit energies in joules per megabyte, by link class and direction.
	ISLTxJPerMB float64
	ISLRxJPerMB float64
	USLTxJPerMB float64
	USLRxJPerMB float64
}

// DefaultEnergyConfig returns the paper's power constants.
func DefaultEnergyConfig() EnergyConfig {
	return EnergyConfig{
		PanelWatts:       20,
		BatteryCapacityJ: 117000,
		ISLTxJPerMB:      0.25,
		ISLRxJPerMB:      0.2,
		USLTxJPerMB:      1.0,
		USLRxJPerMB:      0.8,
	}
}

// Validate reports configuration errors.
func (c EnergyConfig) Validate() error {
	switch {
	case c.PanelWatts < 0:
		return fmt.Errorf("netstate: negative panel power %v", c.PanelWatts)
	case c.BatteryCapacityJ <= 0:
		return fmt.Errorf("netstate: battery capacity must be positive, got %v", c.BatteryCapacityJ)
	case c.ISLTxJPerMB < 0 || c.ISLRxJPerMB < 0 || c.USLTxJPerMB < 0 || c.USLRxJPerMB < 0:
		return fmt.Errorf("netstate: negative unit energy")
	}
	return nil
}

// rxUnitJPerMB returns the receive-side unit energy for a link class.
// ClassNone (path source side) costs nothing.
func (c EnergyConfig) rxUnitJPerMB(class graph.EdgeClass) float64 {
	switch class {
	case graph.ClassISL:
		return c.ISLRxJPerMB
	case graph.ClassUSL:
		return c.USLRxJPerMB
	default:
		return 0
	}
}

// txUnitJPerMB returns the transmit-side unit energy for a link class.
func (c EnergyConfig) txUnitJPerMB(class graph.EdgeClass) float64 {
	switch class {
	case graph.ClassISL:
		return c.ISLTxJPerMB
	case graph.ClassUSL:
		return c.USLTxJPerMB
	default:
		return 0
	}
}

// TransitEnergyJ implements Eq. (1): the per-slot energy a satellite
// consumes to carry rateMbps for slotSeconds, given the classes of its
// incoming and outgoing links. A relay (ISL in, ISL out) pays
// δ(ω_ISL_rx + ω_ISL_tx); an ingress gateway (USL in, ISL out) pays
// δ(ω_USL_rx + ω_ISL_tx); an egress gateway symmetrically; and the
// single-satellite src→s→dst case pays USL on both sides.
func (c EnergyConfig) TransitEnergyJ(in, out graph.EdgeClass, rateMbps, slotSeconds float64) float64 {
	megabytes := rateMbps * slotSeconds / 8
	return megabytes * (c.rxUnitJPerMB(in) + c.txUnitJPerMB(out))
}

// State is the mutable resource state of one simulation run. It is not
// safe for concurrent use; each run owns its State.
type State struct {
	prov      *topology.Provider
	energyCfg EnergyConfig
	batteries []*energy.Battery

	// The link ledger (see ledger.go): isl[slot][csrEdge] and
	// usl[slot][key] hold reserved Mbps; rows and maps are nil until the
	// slot's first reservation. csr, numSats and the two capacities are
	// cached from the provider, whose Config() copies the whole struct.
	csr        *topology.CSR
	numSats    int
	islCapMbps float64
	uslCapMbps float64
	isl        [][]float64
	usl        []map[LinkKey]float64

	// reg is the registry SetObs attached (nil: none); everything that
	// instruments this state's run reads it through Obs.
	reg   *obs.Registry
	instr stateInstruments
	// txn is the undo arena of the single open transaction; see
	// txnScratch.
	txn txnScratch
	// hot is the opt-in per-entity attribution state; see EnableHotspots.
	hot hotspots
	// scratch is the working memory every search of this run runs on,
	// created by the first Admit unless SetScratch chose one.
	scratch *SearchScratch
}

// SearchInstruments holds the flat search's counters, registered under
// graph.* names that the benchmark module and the telemetry surface
// read; the reference search in package graph counts nothing. Each State
// owns one handle, so concurrent runs on a shared provider never write
// each other's counters.
type SearchInstruments struct {
	// HeapPops counts priority-queue pops.
	HeapPops *obs.Counter
	// EdgeRelaxations counts edges examined.
	EdgeRelaxations *obs.Counter
	// FastPathSearches counts searches.
	FastPathSearches *obs.Counter
	// PrunedLabels counts search labels discarded by budget pruning:
	// states whose accumulated plan price already exceeded the request's
	// valuation, so admission would reject any completion through them.
	PrunedLabels *obs.Counter
	// SearchNanos accumulates wall nanoseconds spent inside searches.
	// Nil unless EnableTraceDetail attaches it: the serving layer's
	// per-request phase breakdown and the benchmark's traced laps need
	// it; batch runs and untraced laps never pay the two clock reads per
	// search. Search time includes the
	// transit-cost callbacks, so it overlaps PricingNanos; consumers
	// subtract.
	SearchNanos *obs.Counter
	// PricingNanos accumulates wall nanoseconds spent in the
	// deficit-pricing walks invoked from inside searches; nil unless
	// EnableTraceDetail attaches it.
	PricingNanos *obs.Counter
}

// stateInstruments caches the state's observability handles. All nil
// (no-op) until SetObs attaches a registry.
type stateInstruments struct {
	txnCommits    *obs.Counter
	txnRollbacks  *obs.Counter
	linkReserves  *obs.Counter
	scratchReuses *obs.Counter
	// commitNanos accumulates wall time in the transaction commit path
	// (ReservePath + Consume). Nil — no clock reads — unless
	// EnableTraceDetail attaches it.
	commitNanos *obs.Counter
	// search is read by every flat search over this state; energy is
	// attached to every battery. Both are per-State handles — this is
	// what lets concurrent runs on a shared provider count into their
	// own registries.
	search *SearchInstruments
	energy *energy.Instruments
}

// SetObs attaches observability counters from the registry (nil is a
// no-op). Call before the run starts; the State is single-owner, so the
// handles are plain fields. The search and battery instruments are
// built here too and threaded down explicitly: flat views read the
// search handle from the state, and every battery carries the energy
// handle.
func (s *State) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.reg = reg
	s.instr = stateInstruments{
		txnCommits:    reg.Counter("netstate.txn.commits"),
		txnRollbacks:  reg.Counter("netstate.txn.rollbacks"),
		linkReserves:  reg.Counter("netstate.link.reservations"),
		scratchReuses: reg.Counter("netstate.scratch.reuses"),
		search: &SearchInstruments{
			HeapPops:         reg.Counter("graph.dijkstra.heap_pops"),
			EdgeRelaxations:  reg.Counter("graph.edge_relaxations"),
			FastPathSearches: reg.Counter("graph.fastpath.searches"),
			PrunedLabels:     reg.Counter("graph.fastpath.pruned_labels"),
		},
		energy: &energy.Instruments{
			DeficitWalks: reg.Counter("energy.deficit_walks"),
			Consumptions: reg.Counter("energy.consumptions"),
		},
	}
	for _, b := range s.batteries {
		b.Instrument(s.instr.energy)
	}
}

// Obs returns the registry SetObs attached, nil when none was: the one
// place an algorithm built over this state finds its run's registry.
func (s *State) Obs() *obs.Registry { return s.reg }

// SearchInstruments returns the search counters of this state (nil when
// no registry is attached).
func (s *State) SearchInstruments() *SearchInstruments { return s.instr.search }

// EnableTraceDetail attaches the sub-phase wall-time counters — search,
// deficit-pricing and commit nanoseconds — that the serving layer's
// per-request phase breakdown reads as deltas around each admission.
// They are separate from SetObs because every timed site pays two clock
// reads per call: batch simulations never enable them, and the benchmark
// enables them only on its traced laps (benchmark/run.go).
// The counters go on the registry SetObs attached (the handles are
// fields of the instrument structs SetObs built, shared by pointer with
// live views and batteries); an un-observed state is a no-op. Call
// before the run starts — the State is single-owner.
func (s *State) EnableTraceDetail() {
	reg := s.reg
	if reg == nil {
		return
	}
	// Names deliberately avoid "seconds": spacestat diff's default
	// wall-time gates would otherwise treat these monotonic nano totals
	// as regression-gated quantities.
	s.instr.search.SearchNanos = reg.Counter("graph.search.nanos")
	s.instr.search.PricingNanos = reg.Counter("energy.pricing.nanos")
	s.instr.commitNanos = reg.Counter("netstate.commit.nanos")
}

// New builds the resource state: empty link ledgers and one battery per
// broadband satellite, with solar input derived from the satellite's
// sunlit profile. Every algorithm runs under constraint (7c): no battery
// is ever drawn below empty.
func New(prov *topology.Provider, energyCfg EnergyConfig) (*State, error) {
	if prov == nil {
		return nil, fmt.Errorf("netstate: nil provider")
	}
	if err := energyCfg.Validate(); err != nil {
		return nil, err
	}
	cfg := prov.Config()
	s := &State{
		prov:       prov,
		energyCfg:  energyCfg,
		csr:        prov.ISLCSR(),
		numSats:    prov.NumSats(),
		islCapMbps: cfg.ISLCapacityMbps,
		uslCapMbps: cfg.USLCapacityMbps,
		isl:        make([][]float64, cfg.Horizon),
		usl:        make([]map[LinkKey]float64, cfg.Horizon),
	}
	batteries, err := energy.NewFleet(prov.NumSats(), cfg.Horizon, energyCfg.BatteryCapacityJ,
		energyCfg.PanelWatts*cfg.SlotSeconds, prov.SunlitRow)
	if err != nil {
		return nil, fmt.Errorf("netstate: batteries: %w", err)
	}
	s.batteries = batteries
	return s, nil
}

// SetScratch chooses the scratch this state's searches run on, and so
// which search: NewReferenceScratch() routes every slot through the
// reference search, and a warm scratch from an earlier run skips sizing
// its arrays. Call before the first Admit; without it that Admit creates
// a flat-search scratch of the state's own. Every algorithm built over
// the state searches on the one scratch, since a run handles its
// requests one at a time.
func (s *State) SetScratch(sc *SearchScratch) { s.scratch = sc }

// Provider returns the topology provider backing this state.
func (s *State) Provider() *topology.Provider { return s.prov }

// EnergyConfig returns the power model constants.
func (s *State) EnergyConfig() EnergyConfig { return s.energyCfg }

// Battery returns the ledger of a satellite.
func (s *State) Battery(sat int) *energy.Battery { return s.batteries[sat] }

// DepletedSatCount counts satellites whose remaining battery at the end
// of the slot is below thresholdFrac of capacity — the paper's
// "energy-depleted satellites number" metric with thresholdFrac = 0.2.
func (s *State) DepletedSatCount(slot int, thresholdFrac float64) int {
	count := 0
	for _, b := range s.batteries {
		if b.LevelAt(slot) < thresholdFrac*b.CapacityJ() {
			count++
		}
	}
	return count
}

// EnergyDeficitJ returns the fleet-wide outstanding energy deficit at
// the end of the slot — the per-slot "energy debt" gauge of the
// telemetry layer. Allocation-free.
func (s *State) EnergyDeficitJ(slot int) float64 {
	return energy.SumDeficitJ(s.batteries, slot)
}

// CheckInvariants verifies the ledgers' structural invariants, the ones
// the search path's shortcuts rely on and nothing else would notice
// breaking: no link cell negative or above capacity·(1+1e-12), no USL
// cell held at zero; every battery within capacity with its deficit
// bounds enclosing its non-zero span. Tests call it at the
// end of every equivalence and replay run; it is O(reserved slots × links
// + satellites × horizon), so not for a per-request path.
func (s *State) CheckInvariants() error {
	if err := s.checkLedger(); err != nil {
		return err
	}
	for sat, b := range s.batteries {
		if err := b.CheckInvariants(); err != nil {
			return fmt.Errorf("netstate: satellite %d: %w", sat, err)
		}
	}
	return nil
}

// CheckPreparedDrained always returns nil: the two-phase prepare ledger
// it watched is gone. It survives only because benchmark/run.go calls it
// for its prepared_drained gate and is frozen in the PR that removed the
// ledger; the next benchmark PR drops the call and this declaration.
func (s *State) CheckPreparedDrained() error { return nil }

// Consumption is one satellite energy draw: Joules consumed at Slot on
// satellite Sat.
type Consumption struct {
	Sat    int
	Slot   int
	Joules float64
}
