// Package core implements CEAR — the Congestion and Energy-Aware pricing
// and resource Reservation algorithm of the paper (Algorithm 1).
//
// For each online request, CEAR prices every resource with the current
// network state: link bandwidth at (μ1^λ_e − 1) per Mbps (Eq. (10)) and
// satellite battery deficit at (μ2^λ_s − 1) per joule (Eq. (11)), where a
// consumption's deficit is priced over every future slot it persists
// into (Eq. (12)). It then finds the min-price per-slot paths, accepts
// the request iff the total plan price does not exceed the user's
// valuation ρ_i, and commits the reservations.
package core

import (
	"fmt"
	"math"
	"time"

	"spacebooking/internal/energy"
	"spacebooking/internal/graph"
	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
	"spacebooking/internal/pricing"
	"spacebooking/internal/router"
	"spacebooking/internal/workload"
)

// Variant selects CEAR or one of its ablations; the zero value is CEAR.
type Variant int

const (
	// VariantCEAR is Algorithm 1 as the paper states it.
	VariantCEAR Variant = iota
	// VariantNoEnergy zeroes the energy term of Eq. (12) while keeping
	// battery feasibility (ablation "CEAR-NE").
	VariantNoEnergy
	// VariantNoAdmission accepts every feasible plan regardless of price
	// (ablation "CEAR-AA": pricing only steers routing).
	VariantNoAdmission
	// VariantLinear replaces the exponential price μ^λ − 1 with the
	// linear (μ−1)·λ (ablation "CEAR-LIN").
	VariantLinear
)

// Options configures CEAR and its ablation variants.
type Options struct {
	// Pricing holds μ1/μ2 and the conservativeness parameters.
	Pricing pricing.Params
	// Variant is CEAR or the ablation to run.
	Variant Variant

	// PruneBudget enables budget pruning in the fast-path searches: a
	// search label whose accumulated plan price already exceeds the
	// request's valuation is abandoned, since admission would reject any
	// completion through it. Pruning preserves accept/reject outcomes,
	// accepted plans and battery state. It does not preserve the
	// rejection reason class: a request the plain run rejects as "no
	// feasible path" or "energy infeasible" at a later slot is rejected
	// as priced out at the slot where the budget ran out. Classes only
	// ever move to priced-out, never away from it — but per-reason
	// rejection counts (and any digest over them) differ between a
	// pruned and a plain run. Quoted prices and link reservations match
	// a plain run's bit for bit: the slots a plain run reserves and a
	// pruned run never reaches are rolled back by restoring every cell.
	// Ignored under VariantNoAdmission.
	PruneBudget bool
}

// CEAR is the online pricing and reservation algorithm. Its resource
// state enforces constraint (7c): no battery is driven below empty.
type CEAR struct {
	state *netstate.State
	opts  Options
	// fast is the table-backed price evaluator; the deficit-pricing
	// inner loop calls it once per persisted slot.
	fast *pricing.FastPricer

	// roleJoules is Eq. (1) for the four transit roles at the current
	// search's demand.
	roleJoules [transitRoles]float64

	// Per-satellite unit-price tables for deficit pricing. They belong to
	// this instance, not to the State: they are a function of its μ2 as
	// well as of the ledger.
	units     []energy.UnitPrices
	unitPrice func(utilization float64) float64

	// Routing state: what the slot step is told about this instance's
	// searches — the cost and transit functions bound once at construction
	// (method values, so the per-slot loop allocates no closures; they read
	// curDemand/curSlot) and the idle-ISL price, which beginSearch sets per
	// slot. The searches run on the state's scratch.
	search    netstate.SlotSearch
	curDemand float64
	curSlot   int
	slotSec   float64
	energyCfg netstate.EnergyConfig
	islCap    float64

	// Observability handles; all nil (no-op) on an un-observed state.
	ctrSlotSearch *obs.Counter
	histPlanPrice *obs.Histogram
	// instr is the state's shared search-instrument handle, cached so
	// the pricing walk can check PricingNanos without a method call per
	// priced transit. EnableTraceDetail mutates the pointed-to struct, so a
	// handle cached before enablement still sees the counters.
	instr *netstate.SearchInstruments
	// priced counts the transits priced while PricingNanos is attached;
	// every pricingStride-th of them is timed.
	priced uint32
}

var _ router.Algorithm = (*CEAR)(nil)

// New builds a CEAR instance over the given resource state.
func New(state *netstate.State, opts Options) (*CEAR, error) {
	if state == nil {
		return nil, fmt.Errorf("core: nil state")
	}
	if err := opts.Pricing.Validate(); err != nil {
		return nil, err
	}
	if opts.Variant < VariantCEAR || opts.Variant > VariantLinear {
		return nil, fmt.Errorf("core: unknown variant %d", opts.Variant)
	}
	c := &CEAR{
		state:     state,
		opts:      opts,
		fast:      opts.Pricing.Fast(),
		units:     make([]energy.UnitPrices, state.Provider().NumSats()),
		slotSec:   state.Provider().Config().SlotSeconds,
		energyCfg: state.EnergyConfig(),
		islCap:    state.Provider().Config().ISLCapacityMbps,
	}
	c.search.Begin = c.beginSearch
	c.search.EdgeCost = c.priceEdgeCost
	c.search.Transit = c.priceTransit
	c.unitPrice = c.energyUnitPrice
	// The admission instruments (slot searches, plan prices, price
	// lookups) go on the registry the state was observed with
	// (netstate.State.SetObs); an un-observed state leaves them on their
	// no-op fast path.
	if reg := state.Obs(); reg != nil {
		c.ctrSlotSearch = reg.Counter("core.slot_searches")
		c.histPlanPrice = reg.Histogram("core.plan_price", PriceBuckets())
		c.fast.Instrument(reg.Counter("pricing.lut_lookups"))
	}
	c.instr = state.SearchInstruments()
	return c, nil
}

// PriceBuckets returns histogram boundaries for plan prices: decade
// steps from 1e-3 to 1e12, spanning idle-network epsilon prices through
// the paper's 2.3e9 valuations.
func PriceBuckets() []float64 {
	out := make([]float64, 0, 16)
	for e := -3; e <= 12; e++ {
		out = append(out, math.Pow(10, float64(e)))
	}
	return out
}

// congestionUnitPrice returns the bandwidth price per Mbps at the given
// utilization: σ_e/c_e per Eq. (10), or its linear ablation.
func (c *CEAR) congestionUnitPrice(lambda float64) float64 {
	if c.opts.Variant == VariantLinear {
		return (c.opts.Pricing.Mu1 - 1) * lambda
	}
	return c.fast.CongestionUnitCost(lambda)
}

// energyUnitPrice returns the battery price per joule of deficit at the
// given utilization: σ_s/ϖ_s per Eq. (11), or its linear ablation.
func (c *CEAR) energyUnitPrice(lambda float64) float64 {
	if c.opts.Variant == VariantLinear {
		return (c.opts.Pricing.Mu2 - 1) * lambda
	}
	return c.fast.EnergyUnitCost(lambda)
}

// energyTransitCost prices the energy a satellite would spend carrying
// the request in one slot: Σ_{t ≥ T_a} price(λ_s(t)) · Ω̄_s(T_a, t, i),
// the second term of Eq. (12) for one (satellite, slot). Returns +Inf if
// the consumption alone would breach constraint (7c).
func (c *CEAR) energyTransitCost(sat, slot int, joules float64) float64 {
	if joules <= 0 {
		return 0
	}
	// Pricing wall time for the serving layer's phase breakdown; the
	// counter is nil (one branch, no clock reads) unless trace detail
	// is enabled. Sampled: one priced transit in pricingStride is timed
	// and charged pricingStride times its interval.
	if in := c.instr; in != nil && in.PricingNanos != nil {
		if c.priced++; c.priced%pricingStride == 0 {
			defer pricingTimer(in.PricingNanos, nanotime())
		}
	}
	b := c.state.Battery(sat)
	cost, feasible := b.PriceDeficit(slot, joules, c.unitPrices(sat, b))
	if !feasible {
		c.state.NoteDepletedSat(sat)
		return math.Inf(1)
	}
	return cost
}

// unitPrices returns the satellite's unit-price table, brought up to
// date from the slot being searched on if its battery's ledger moved
// since the last fill. Nil — which prices every slot at zero — under
// VariantNoEnergy.
func (c *CEAR) unitPrices(sat int, b *energy.Battery) *energy.UnitPrices {
	if c.opts.Variant == VariantNoEnergy {
		return nil
	}
	u := &c.units[sat]
	b.FillUnitPrices(u, c.curSlot, c.unitPrice)
	return u
}

// UnitTableSlots sums what energy.UnitPrices.Slots reports over the
// satellites' unit-price tables, and counts the tables that hold an
// array: what the tables cost against the windows pricing needed.
func (c *CEAR) UnitTableSlots() (tables, widest, held int) {
	for i := range c.units {
		w, h := c.units[i].Slots()
		if h > 0 {
			tables++
		}
		widest += w
		held += h
	}
	return tables, widest, held
}

// pricingStride is the pricing timer's sampling interval: a timed
// transit stands for itself and the pricingStride-1 untimed ones before
// it. Two clock reads per transit cost about as much as the transit
// itself; one pair in eight keeps the estimate and most of that cost off
// traced runs.
const pricingStride = 8

// pricingTimer charges the pricing counter pricingStride times the
// elapsed interval; the deferred form captures the start at the defer
// statement.
func pricingTimer(c *obs.Counter, t0 int64) {
	c.Add(pricingStride * (nanotime() - t0))
}

// clockBase anchors the pricing timer, which runs on one priced transit
// in pricingStride when trace detail is on: time.Since of a Time that
// carries a monotonic reading is one clock read where time.Now is two
// (wall and monotonic), and a timer only needs differences.
var clockBase = time.Now()

func nanotime() int64 { return int64(time.Since(clockBase)) }

// hopEpsilon breaks price ties toward shorter paths: on an idle
// network every exponential price is exactly zero (μ^0 − 1), and
// without a tie-break the min-price "plan" could be an arbitrarily
// long walk that wastes bandwidth and energy network-wide. The value
// is small enough to never override a real price difference.
const hopEpsilon = 1e-6

// priceEdgeCost is the per-edge congestion price of Eq. (10) for the
// current slot's demand (curDemand). Bound once as c.search.EdgeCost so
// the slot loop passes it without allocating a closure per slot.
func (c *CEAR) priceEdgeCost(key netstate.LinkKey, class graph.EdgeClass, capacity, utilization float64) float64 {
	return c.congestionUnitPrice(utilization)*c.curDemand + hopEpsilon
}

// transitRoles counts the roles a transited satellite can play: it
// receives on an ISL or a USL and sends on an ISL or a USL.
const transitRoles = 4

// transitRole numbers the (in, out) role 0..3. A search never asks for
// another pair — only the path source has no incoming class, and every
// edge has an outgoing one — so anything else is a bug and panics rather
// than read a real role's joules.
func transitRole(in, out graph.EdgeClass) int {
	i, o := uint8(in-graph.ClassISL), uint8(out-graph.ClassISL)
	if i > 1 || o > 1 {
		panic("core: transit cost asked for a link class that is neither ISL nor USL")
	}
	return int(i)<<1 | int(o)
}

// beginSearch points the bound cost functions at one slot search: its
// slot and demand, the four roles' joules — fixed by the demand, so
// computed here rather than per call — and what an unreserved ISL costs.
// priceEdgeCost reads nothing but the utilization and the search's
// demand, so its own value at utilization 0 is this search's price of
// every idle ISL, whatever the pricing variant. Bound once as
// c.search.Begin.
func (c *CEAR) beginSearch(slot int, demand float64) {
	c.ctrSlotSearch.Inc()
	c.curSlot, c.curDemand = slot, demand
	for _, in := range [...]graph.EdgeClass{graph.ClassISL, graph.ClassUSL} {
		for _, out := range [...]graph.EdgeClass{graph.ClassISL, graph.ClassUSL} {
			c.roleJoules[transitRole(in, out)] = c.energyCfg.TransitEnergyJ(in, out, demand, c.slotSec)
		}
	}
	c.search.IdleISLCost = c.search.EdgeCost(0, graph.ClassISL, c.islCap, 0)
}

// priceTransit is the role-dependent energy transit cost for the current
// (slot, demand). Both searches ask once per popped state, so there is
// nothing to memoise. Bound once as c.search.Transit.
func (c *CEAR) priceTransit(node int, in, out graph.EdgeClass) float64 {
	return c.energyTransitCost(node, c.curSlot, c.roleJoules[transitRole(in, out)])
}

// Handle implements Algorithm 1 for one online request: the shared
// request loop (netstate.State.Admit) under CEAR's prices, with
// admission control against ρ_i except under VariantNoAdmission.
func (c *CEAR) Handle(req workload.Request) (router.Decision, error) {
	valuation, budget := req.Valuation, math.Inf(1)
	if c.opts.Variant == VariantNoAdmission {
		valuation = math.Inf(1)
	} else if c.opts.PruneBudget {
		// Budget pruning hands the searches the admission threshold so
		// they can abandon provably-rejected work early.
		budget = req.Valuation
	}
	d, err := c.state.Admit(req, &c.search, valuation, budget)
	if err != nil {
		return router.Decision{}, fmt.Errorf("core: %w", err)
	}
	if d.Plan.Paths != nil {
		// A complete plan: accepted, or priced out at line 6.
		c.histPlanPrice.Observe(d.Price)
	}
	return d, nil
}
