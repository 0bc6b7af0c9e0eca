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

// Options configures CEAR and its ablation variants.
type Options struct {
	// Pricing holds μ1/μ2 and the conservativeness parameters.
	Pricing pricing.Params
	// DisableEnergyPricing zeroes the energy term of Eq. (12) while
	// keeping battery feasibility (ablation "CEAR-NE").
	DisableEnergyPricing bool
	// DisableAdmission accepts every feasible plan regardless of price
	// (ablation "CEAR-AA": pricing only steers routing).
	DisableAdmission bool
	// LinearPricing replaces the exponential price μ^λ − 1 with the
	// linear (μ−1)·λ (ablation "CEAR-LIN").
	LinearPricing bool

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
	// a plain run's bit for bit only while both roll back the same
	// reservations: the plain run reserves and releases slots a pruned
	// run never reaches, and releasing r from a link holding a leaves
	// (a+r)−r, so later prices can differ in their last bits. Ignored
	// when DisableAdmission is set.
	PruneBudget bool
	// Scratch supplies the pooled search scratch the slot searches run on.
	// Nil allocates a private one; the experiment scheduler passes a
	// pooled scratch so parallel runs reuse warm arrays, and tests pass
	// netstate.NewReferenceScratch() to run the reference search.
	Scratch *netstate.SearchScratch

	// Obs, when non-nil, attaches admission counters and histograms
	// (evaluations, accept/reject, slot searches, price lookups) to the
	// registry. Nil leaves the instrumentation on its no-op fast path.
	Obs *obs.Registry
}

// CEAR is the online pricing and reservation algorithm. It owns a
// strict-mode (non-clamping) resource state: constraint (7c) is enforced.
type CEAR struct {
	state *netstate.State
	opts  Options
	// fast is the table-backed price evaluator; the deficit-pricing
	// inner loop calls it once per persisted slot.
	fast *pricing.FastPricer

	// Epoch-stamped transit-cost cache, reused across searches to avoid
	// per-slot map allocation: one entry per (satellite, role), a
	// satellite's four side by side. roleJoules is Eq. (1) for the four
	// roles at the current search's demand.
	transit    []transitEntry
	epoch      uint32
	roleJoules [transitRoles]float64

	// Per-satellite unit-price tables for deficit pricing. They belong to
	// this instance, not to the State: they are a function of μ2 as well
	// as of the ledger, and the adaptive controller rebuilds CEAR
	// instances with a new μ2 over the same State.
	units     []energy.UnitPrices
	unitPrice func(utilization float64) float64

	// Routing state: the pooled search scratch and what the slot step is
	// told about this instance's searches — the cost, transit and
	// look-ahead functions bound once at construction (method values, so
	// the per-slot loop allocates no closures; they read curDemand/curSlot)
	// and the idle-ISL price, which beginSearch sets per slot.
	scratch   *netstate.SearchScratch
	search    netstate.SlotSearch
	curDemand float64
	curSlot   int
	slotSec   float64
	energyCfg netstate.EnergyConfig
	islCap    float64

	// Observability handles; all nil (no-op) without Options.Obs.
	ctrEvaluations *obs.Counter
	ctrAccepted    *obs.Counter
	ctrRejected    *obs.Counter
	ctrSlotSearch  *obs.Counter
	histPlanPrice  *obs.Histogram
	// instr is the state's shared search-instrument handle, cached so
	// the pricing walk can check PricingNanos without a method call per
	// cache miss. EnableTraceDetail mutates the pointed-to struct, so a
	// handle cached before enablement still sees the counters.
	instr *netstate.SearchInstruments
}

var _ router.Algorithm = (*CEAR)(nil)

// New builds a CEAR instance over the given resource state. The state
// must use strict (non-clamping) batteries; CEAR never drives a battery
// below empty.
func New(state *netstate.State, opts Options) (*CEAR, error) {
	if state == nil {
		return nil, fmt.Errorf("core: nil state")
	}
	if err := opts.Pricing.Validate(); err != nil {
		return nil, err
	}
	numSats := state.Provider().NumSats()
	c := &CEAR{
		state:     state,
		opts:      opts,
		fast:      opts.Pricing.Fast(),
		transit:   make([]transitEntry, numSats*transitRoles),
		units:     make([]energy.UnitPrices, numSats),
		scratch:   opts.Scratch,
		slotSec:   state.Provider().Config().SlotSeconds,
		energyCfg: state.EnergyConfig(),
		islCap:    state.Provider().Config().ISLCapacityMbps,
	}
	if c.scratch == nil {
		c.scratch = netstate.NewSearchScratch()
	}
	c.search.EdgeCost = c.priceEdgeCost
	c.search.Transit = c.priceTransit
	c.unitPrice = c.energyUnitPrice
	if !opts.DisableEnergyPricing {
		// Without energy pricing nothing is summed: there is no chain of
		// additions for a second lane to overlap with.
		c.search.LookAhead = c.priceAhead
	}
	if reg := opts.Obs; reg != nil {
		c.ctrEvaluations = reg.Counter("core.admission.evaluations")
		c.ctrAccepted = reg.Counter("core.admission.accepted")
		c.ctrRejected = reg.Counter("core.admission.rejected")
		c.ctrSlotSearch = reg.Counter("core.slot_searches")
		c.histPlanPrice = reg.Histogram("core.plan_price", PriceBuckets())
		c.fast.Instrument(reg.Counter("pricing.lut_lookups"))
		state.SetObs(reg)
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

// Name implements router.Algorithm.
func (c *CEAR) Name() string {
	switch {
	case c.opts.DisableEnergyPricing:
		return "CEAR-NE"
	case c.opts.DisableAdmission:
		return "CEAR-AA"
	case c.opts.LinearPricing:
		return "CEAR-LIN"
	default:
		return "CEAR"
	}
}

// congestionUnitPrice returns the bandwidth price per Mbps at the given
// utilization: σ_e/c_e per Eq. (10), or its linear ablation.
func (c *CEAR) congestionUnitPrice(lambda float64) float64 {
	if c.opts.LinearPricing {
		return (c.opts.Pricing.Mu1 - 1) * lambda
	}
	return c.fast.CongestionUnitCost(lambda)
}

// energyUnitPrice returns the battery price per joule of deficit at the
// given utilization: σ_s/ϖ_s per Eq. (11), or its linear ablation.
func (c *CEAR) energyUnitPrice(lambda float64) float64 {
	if c.opts.LinearPricing {
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
	// is enabled. Timed here — on the transit-cache miss path — so hits
	// cost nothing.
	if in := c.instr; in != nil && in.PricingNanos != nil {
		defer pricingTimer(in.PricingNanos, nanotime())
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
// since the last fill. Nil — which prices every slot at zero — when
// energy pricing is disabled.
func (c *CEAR) unitPrices(sat int, b *energy.Battery) *energy.UnitPrices {
	if c.opts.DisableEnergyPricing {
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

// pricingTimer accumulates elapsed pricing wall time; the deferred form
// captures the start at the defer statement.
func pricingTimer(c *obs.Counter, t0 int64) {
	c.Add(nanotime() - t0)
}

// clockBase anchors the pricing timers, which run ≈600 times per search
// when trace detail is on: time.Since of a Time that carries a monotonic
// reading is one clock read where time.Now is two (wall and monotonic),
// and a timer only needs differences.
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

// transitEntry is one memoised transit cost, current while its epoch is
// the search's. Four make 64 bytes: what priceTransit and priceAhead read
// of one satellite shares a cache line.
type transitEntry struct {
	value float64
	epoch uint32
}

// transitRole numbers the (in, out) role 0..3. A search never asks for
// another pair — only the path source has no incoming class, and every
// edge has an outgoing one — so anything else is a bug and panics rather
// than alias a real role's entry.
func transitRole(in, out graph.EdgeClass) int {
	i, o := uint8(in-graph.ClassISL), uint8(out-graph.ClassISL)
	if i > 1 || o > 1 {
		panic("core: transit cost asked for a link class that is neither ISL nor USL")
	}
	return int(i)<<1 | int(o)
}

// transitKey is the transit cache's entry for one (satellite, role).
func transitKey(node, role int) int { return node*transitRoles + role }

// beginSearch points the bound cost functions at one slot search: its
// slot and demand, a fresh transit-cache epoch, the four roles' joules —
// fixed by the demand, so computed here rather than per call — and what an
// unreserved ISL costs. priceEdgeCost reads nothing but the utilization
// and the search's demand, so its own value at utilization 0 is this
// search's price of every idle ISL, whatever the pricing variant.
func (c *CEAR) beginSearch(slot int, demand float64) {
	c.curSlot, c.curDemand = slot, demand
	c.epoch++
	if c.epoch == 0 {
		// Wrapped: entries stamped 2^32 searches ago must not read as current.
		for i := range c.transit {
			c.transit[i].epoch = 0
		}
		c.epoch = 1
	}
	for _, in := range [...]graph.EdgeClass{graph.ClassISL, graph.ClassUSL} {
		for _, out := range [...]graph.EdgeClass{graph.ClassISL, graph.ClassUSL} {
			c.roleJoules[transitRole(in, out)] = c.energyCfg.TransitEnergyJ(in, out, demand, c.slotSec)
		}
	}
	c.search.IdleISLCost = c.search.EdgeCost(0, graph.ClassISL, c.islCap, 0)
}

// priceTransit is the memoised role-dependent energy transit cost for
// the current (slot, demand), invalidated by beginSearch. Bound once as
// c.search.Transit.
func (c *CEAR) priceTransit(node int, in, out graph.EdgeClass) float64 {
	role := transitRole(in, out)
	e := &c.transit[transitKey(node, role)]
	if e.epoch == c.epoch {
		return e.value
	}
	v := c.energyTransitCost(node, c.curSlot, c.roleJoules[role])
	*e = transitEntry{value: v, epoch: c.epoch}
	return v
}

// priceAhead is the search's look-ahead hook: sat was just popped with
// incoming class in, and (nextSat, nextIn) is the state on top of the
// heap — the next one expanded unless the search ends first. Each will
// ask priceTransit for its ISL-out role; when neither is cached yet and
// both are constant-run lanes, the two sums are computed in one loop
// whose addition chains overlap, and both land in the transit cache.
// Every other case is left to priceTransit, so whether a pair forms
// changes when a price is computed, never what it is.
func (c *CEAR) priceAhead(sat int, in graph.EdgeClass, nextSat int, nextIn graph.EdgeClass) {
	role1, role2 := transitRole(in, graph.ClassISL), transitRole(nextIn, graph.ClassISL)
	e1, e2 := &c.transit[transitKey(sat, role1)], &c.transit[transitKey(nextSat, role2)]
	if e1 == e2 || e1.epoch == c.epoch || e2.epoch == c.epoch {
		return
	}
	// One clock pair for the batch: with trace detail on, a pair charges
	// the pricing timer what two single walks would for half the reads.
	if in := c.instr; in != nil && in.PricingNanos != nil {
		defer pricingTimer(in.PricingNanos, nanotime())
	}
	b1, b2 := c.state.Battery(sat), c.state.Battery(nextSat)
	cost1, cost2, ok := energy.PriceDeficitPair(c.curSlot,
		b1, c.roleJoules[role1], c.unitPrices(sat, b1),
		b2, c.roleJoules[role2], c.unitPrices(nextSat, b2))
	if ok {
		*e1 = transitEntry{value: cost1, epoch: c.epoch}
		*e2 = transitEntry{value: cost2, epoch: c.epoch}
	}
}

// Handle implements Algorithm 1 for one online request.
func (c *CEAR) Handle(req workload.Request) (router.Decision, error) {
	if err := req.Validate(c.state.Provider().Horizon()); err != nil {
		return router.Decision{}, fmt.Errorf("core: %w", err)
	}
	c.ctrEvaluations.Inc()

	totalPrice := 0.0
	plan := router.Plan{Paths: make([]router.SlotPath, 0, req.DurationSlots())}

	// Budget pruning hands the searches the admission threshold so they
	// can abandon provably-rejected work early; +Inf disables it.
	budgetLimit := math.Inf(1)
	if c.opts.PruneBudget && !c.opts.DisableAdmission {
		budgetLimit = req.Valuation
	}

	// Lines 1-5 of Algorithm 1, with one practical refinement: slots are
	// priced, searched and committed in order inside a transaction, so
	// each slot's search observes the request's *own* earlier slots'
	// consumption (the paper prices all slots against the pre-request
	// state, which under the evaluation's assumption-violating valuations
	// can produce jointly energy-infeasible plans — see DESIGN.md). If
	// any slot is unroutable or the total price exceeds ρ_i, the
	// transaction rolls back and the network is untouched.
	txn := c.state.Begin()
	for slot := req.StartSlot; slot <= req.EndSlot; slot++ {
		c.beginSearch(slot, req.RateAt(slot))
		c.ctrSlotSearch.Inc()

		// Lines 2-4 and 7-16 for this slot: min-price path, then reserve
		// its bandwidth and apply its energy consumption so the next slot's
		// search prices the updated state.
		path, outcome, err := c.scratch.RouteSlot(txn, slot, req.Src, req.Dst, c.curDemand, &c.search, totalPrice, budgetLimit)
		if outcome != netstate.SlotRouted {
			txn.Rollback()
			if outcome == netstate.SlotFailed {
				return router.Decision{}, fmt.Errorf("core: request %d slot %d: %w", req.ID, slot, err)
			}
			c.ctrRejected.Inc()
			switch outcome {
			case netstate.SlotBudgetPruned:
				// Every completion of this slot's search exceeds the
				// valuation: priced out, not unroutable.
				return router.Decision{
					Reason: fmt.Sprintf("plan price exceeds valuation %.3g (budget-pruned at slot %d)", req.Valuation, slot),
				}, nil
			case netstate.SlotEnergyInfeasible:
				return router.Decision{Reason: fmt.Sprintf("energy infeasible at slot %d: %v", slot, err)}, nil
			default:
				return router.Decision{Reason: fmt.Sprintf("no feasible path at slot %d", slot)}, nil
			}
		}
		totalPrice += path.Cost
		plan.Paths = append(plan.Paths, router.SlotPath{Slot: slot, Path: path})
	}

	// Line 6: admission control — compare the plan price with ρ_i.
	c.histPlanPrice.Observe(totalPrice)
	if !c.opts.DisableAdmission && totalPrice > req.Valuation {
		txn.Rollback()
		c.ctrRejected.Inc()
		return router.Decision{
			Price:  totalPrice,
			Reason: fmt.Sprintf("plan price %.3g exceeds valuation %.3g", totalPrice, req.Valuation),
			Plan:   plan,
		}, nil
	}

	txn.Commit()
	c.ctrAccepted.Inc()
	return router.Decision{
		Accepted: true,
		Price:    totalPrice,
		Plan:     plan,
	}, nil
}
