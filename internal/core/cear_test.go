package core

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"spacebooking/internal/graph"
	"spacebooking/internal/grid"
	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
	"spacebooking/internal/pricing"
	"spacebooking/internal/router"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

var testEpoch = time.Date(2026, time.July, 5, 0, 0, 0, 0, time.UTC)

func testSites() []grid.Site {
	return []grid.Site{
		{ID: 0, LatDeg: 40.7, LonDeg: -74.0},  // New York
		{ID: 1, LatDeg: 34.1, LonDeg: -118.2}, // Los Angeles
	}
}

func groundEP(i int) topology.Endpoint {
	return topology.Endpoint{Kind: topology.EndpointGround, Index: i}
}

// newTestStack builds a small provider + strict state. Battery capacity
// can be overridden to force energy scarcity.
func newTestStack(t *testing.T, batteryCapJ float64) *netstate.State {
	t.Helper()
	ecfg := netstate.DefaultEnergyConfig()
	if batteryCapJ > 0 {
		ecfg.BatteryCapacityJ = batteryCapJ
	}
	return newTestStackWith(t, 40, ecfg)
}

// newTestStackWith is newTestStack with the horizon and every power
// constant in the caller's hands.
func newTestStackWith(t *testing.T, horizon int, ecfg netstate.EnergyConfig) *netstate.State {
	t.Helper()
	cfg := topology.DefaultConfig(testEpoch)
	cfg.Walker.Planes = 8
	cfg.Walker.SatsPerPlane = 12
	cfg.Walker.PhasingF = 3
	cfg.Horizon = horizon
	prov, err := topology.NewProvider(cfg, testSites(), nil)
	if err != nil {
		t.Fatal(err)
	}
	state, err := netstate.New(prov, ecfg, false)
	if err != nil {
		t.Fatal(err)
	}
	return state
}

func paperPricing(t *testing.T) pricing.Params {
	t.Helper()
	p, err := pricing.Derive(1, 1, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newCEAR(t *testing.T, state *netstate.State, opts Options) *CEAR {
	t.Helper()
	if opts.Pricing == (pricing.Params{}) {
		opts.Pricing = paperPricing(t)
	}
	c, err := New(state, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// bothCovered reports whether each of the two cities sees a satellite in
// the slot.
func bothCovered(t *testing.T, prov *topology.Provider, slot int) bool {
	t.Helper()
	for city := 0; city < 2; city++ {
		vis, err := prov.VisibleSats(groundEP(city), slot)
		if err != nil {
			t.Fatal(err)
		}
		if len(vis) == 0 {
			return false
		}
	}
	return true
}

// routableRequest returns a request between the two cities in a window
// where both endpoints have coverage.
func routableRequest(t *testing.T, state *netstate.State, id int, rate float64, durSlots int) workload.Request {
	t.Helper()
	prov := state.Provider()
	for start := 0; start+durSlots <= prov.Horizon(); start++ {
		ok := true
		for slot := start; slot < start+durSlots; slot++ {
			if !bothCovered(t, prov, slot) {
				ok = false
				break
			}
		}
		if ok {
			return workload.Request{
				ID: id, Src: groundEP(0), Dst: groundEP(1),
				ArrivalSlot: start, StartSlot: start, EndSlot: start + durSlots - 1,
				RateMbps: rate, Valuation: 2.3e9,
			}
		}
	}
	t.Skip("no routable window found")
	return workload.Request{}
}

func TestNewErrors(t *testing.T) {
	state := newTestStack(t, 0)
	if _, err := New(nil, Options{Pricing: paperPricing(t)}); err == nil {
		t.Error("nil state should error")
	}
	if _, err := New(state, Options{}); err == nil {
		t.Error("zero pricing should error")
	}
}

func TestNameVariants(t *testing.T) {
	state := newTestStack(t, 0)
	tests := []struct {
		opts Options
		want string
	}{
		{Options{}, "CEAR"},
		{Options{DisableEnergyPricing: true}, "CEAR-NE"},
		{Options{DisableAdmission: true}, "CEAR-AA"},
		{Options{LinearPricing: true}, "CEAR-LIN"},
	}
	for _, tt := range tests {
		c := newCEAR(t, state, tt.opts)
		if got := c.Name(); got != tt.want {
			t.Errorf("Name = %q, want %q", got, tt.want)
		}
	}
}

func TestHandleArgumentErrors(t *testing.T) {
	state := newTestStack(t, 0)
	c := newCEAR(t, state, Options{})
	bad := workload.Request{ID: 1, Src: groundEP(0), Dst: groundEP(1), StartSlot: 0, EndSlot: 0, RateMbps: 0}
	if _, err := c.Handle(bad); err == nil {
		t.Error("zero rate should error")
	}
	bad = workload.Request{ID: 1, Src: groundEP(0), Dst: groundEP(1), StartSlot: 5, EndSlot: 4, RateMbps: 100}
	if _, err := c.Handle(bad); err == nil {
		t.Error("inverted window should error")
	}
	bad = workload.Request{ID: 1, Src: groundEP(0), Dst: groundEP(1), StartSlot: 0, EndSlot: 9999, RateMbps: 100}
	if _, err := c.Handle(bad); err == nil {
		t.Error("window beyond horizon should error")
	}
}

func TestFirstRequestAcceptedAtZeroPrice(t *testing.T) {
	state := newTestStack(t, 0)
	c := newCEAR(t, state, Options{})
	req := routableRequest(t, state, 1, 800, 3)
	d, err := c.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted {
		t.Fatalf("first request rejected: %s", d.Reason)
	}
	// Fresh network: the first slot is priced at zero (every utilization
	// is zero); later slots see only the request's own small footprint,
	// so the total price is negligible against any realistic valuation.
	if d.Price > 1e6 {
		t.Errorf("price = %v, want negligible on an empty network", d.Price)
	}
	if len(d.Plan.Paths) != req.DurationSlots() {
		t.Errorf("plan has %d paths, want %d", len(d.Plan.Paths), req.DurationSlots())
	}
	for _, sp := range d.Plan.Paths {
		if sp.Path.Hops() < 2 {
			t.Errorf("slot %d path too short: %d hops", sp.Slot, sp.Path.Hops())
		}
	}
}

func TestAcceptReservesResources(t *testing.T) {
	state := newTestStack(t, 0)
	c := newCEAR(t, state, Options{})
	req := routableRequest(t, state, 1, 1000, 2)
	d, err := c.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	// At threshold 1 every link holding a reservation counts.
	if state.CongestedLinkCount(req.StartSlot, 1) == 0 {
		t.Error("no links were reserved")
	}
	// Energy was consumed on the transited satellites.
	totalDeficitOrSolarUse := 0.0
	for sat := 0; sat < state.Provider().NumSats(); sat++ {
		b := state.Battery(sat)
		for slot := req.StartSlot; slot <= req.EndSlot; slot++ {
			totalDeficitOrSolarUse += b.DeficitAt(slot)
		}
	}
	// Either batteries show deficits or solar absorbed it; check the
	// stronger condition on a dark slot if one exists on the path.
	sp := d.Plan.Paths[0]
	sat := sp.Path.Nodes[1]
	if sat >= state.Provider().NumSats() {
		t.Fatalf("unexpected node %d", sat)
	}
	spent := state.Battery(sat).SolarRemainingAt(sp.Slot) + state.Battery(sat).DeficitAt(sp.Slot)
	_ = spent // battery state queried without panic is the key check here
}

func TestSecondRequestPaysPositivePrice(t *testing.T) {
	state := newTestStack(t, 0)
	c := newCEAR(t, state, Options{})
	first := routableRequest(t, state, 1, 2000, 3)
	d1, err := c.Handle(first)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Accepted {
		t.Fatalf("first rejected: %s", d1.Reason)
	}
	second := first
	second.ID = 2
	d2, err := c.Handle(second)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Accepted {
		t.Fatalf("second rejected: %s", d2.Reason)
	}
	if d2.Price <= 0 {
		t.Errorf("second identical request price = %v, want > 0 (resources now utilised)", d2.Price)
	}
}

func TestAdmissionRejectsLowValuation(t *testing.T) {
	state := newTestStack(t, 0)
	c := newCEAR(t, state, Options{})
	first := routableRequest(t, state, 1, 2000, 3)
	d1, err := c.Handle(first)
	if err != nil || !d1.Accepted {
		t.Fatalf("setup request failed: %v %v", err, d1.Reason)
	}
	before := linkFootprint(state, first, d1.Plan)

	cheap := first
	cheap.ID = 2
	cheap.Valuation = 1e-9 // below any positive price
	d, err := c.Handle(cheap)
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted {
		t.Fatal("low-valuation request accepted despite positive price")
	}
	if !strings.Contains(d.Reason, "exceeds valuation") {
		t.Errorf("reason = %q", d.Reason)
	}
	// Rejection must not mutate state.
	if after := linkFootprint(state, first, d1.Plan); !slices.Equal(after, before) {
		t.Errorf("rejected request changed link state: footprint %v, was %v", after, before)
	}
}

// linkFootprint records what the link ledger holds over req's window:
// the number of links carrying a reservation in each slot (at threshold
// 1 every such link counts), then the bandwidth booked on each link of
// plan. A reservation left anywhere in the window changes one of them.
func linkFootprint(state *netstate.State, req workload.Request, plan router.Plan) []float64 {
	prov := state.Provider()
	gid := func(node int) int {
		switch node {
		case prov.NumSats():
			return prov.GlobalID(req.Src)
		case prov.NumSats() + 1:
			return prov.GlobalID(req.Dst)
		}
		return node
	}
	var fp []float64
	for slot := req.StartSlot; slot <= req.EndSlot; slot++ {
		fp = append(fp, float64(state.CongestedLinkCount(slot, 1)))
	}
	for _, sp := range plan.Paths {
		nodes := sp.Path.Nodes
		for i := 1; i < len(nodes); i++ {
			key := netstate.MakeLinkKey(gid(nodes[i-1]), gid(nodes[i]))
			fp = append(fp, state.LinkUsedMbps(key, sp.Slot))
		}
	}
	return fp
}

func TestDisableAdmissionAcceptsAnyFeasible(t *testing.T) {
	state := newTestStack(t, 0)
	c := newCEAR(t, state, Options{DisableAdmission: true})
	first := routableRequest(t, state, 1, 2000, 4)
	if d, err := c.Handle(first); err != nil || !d.Accepted {
		t.Fatalf("setup: %v %v", err, d.Reason)
	}
	cheap := first
	cheap.ID = 2
	cheap.Valuation = 1e-9
	d, err := c.Handle(cheap)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted {
		t.Errorf("CEAR-AA rejected a feasible request: %s", d.Reason)
	}
}

func TestRejectWhenNoPath(t *testing.T) {
	state := newTestStack(t, 0)
	c := newCEAR(t, state, Options{})
	req := routableRequest(t, state, 1, 3000, 1)
	// Saturate all USLs from the source in the request's slot.
	prov := state.Provider()
	vis, err := prov.VisibleSats(req.Src, req.StartSlot)
	if err != nil {
		t.Fatal(err)
	}
	srcGID := prov.GlobalID(req.Src)
	for _, sat := range vis {
		key := netstate.MakeLinkKey(srcGID, sat)
		if err := state.ReserveLink(key, req.StartSlot, 3500); err != nil {
			t.Fatal(err)
		}
	}
	d, err := c.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted {
		t.Fatal("request accepted with saturated access links")
	}
	if !strings.Contains(d.Reason, "no feasible path") {
		t.Errorf("reason = %q", d.Reason)
	}
}

func TestEnergyFeasibilityBlocksTinyBatteries(t *testing.T) {
	// 100 J batteries cannot carry a 2000 Mbps relay slot (6750 J), so no
	// transit is feasible anywhere.
	state := newTestStack(t, 100)
	c := newCEAR(t, state, Options{})
	req := routableRequest(t, state, 1, 2000, 2)
	d, err := c.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted {
		t.Fatal("request accepted despite infeasible battery capacity")
	}
}

func TestPricesNonDecreasingUnderLoad(t *testing.T) {
	state := newTestStack(t, 0)
	c := newCEAR(t, state, Options{})
	base := routableRequest(t, state, 0, 1500, 3)
	lastPrice := -1.0
	for i := 0; i < 5; i++ {
		req := base
		req.ID = i
		d, err := c.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Accepted {
			break // network saturated; fine
		}
		if d.Price < lastPrice {
			t.Fatalf("price decreased under monotone load: %v after %v", d.Price, lastPrice)
		}
		lastPrice = d.Price
	}
	if lastPrice <= 0 {
		t.Error("prices never became positive under repeated identical load")
	}
}

func TestLinearPricingAblationStillRoutes(t *testing.T) {
	state := newTestStack(t, 0)
	c := newCEAR(t, state, Options{LinearPricing: true})
	req := routableRequest(t, state, 1, 1000, 2)
	d, err := c.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
}

// Invariant: whatever CEAR does, constraint (7b) and (7c) hold: no link
// over capacity, no battery below empty.
func TestInvariantsUnderSaturatingLoad(t *testing.T) {
	state := newTestStack(t, 0)
	c := newCEAR(t, state, Options{})
	base := routableRequest(t, state, 0, 2000, 5)
	accepted := 0
	for i := 0; i < 40; i++ {
		req := base
		req.ID = i
		d, err := c.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		if d.Accepted {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("nothing accepted")
	}
	prov := state.Provider()
	for sat := 0; sat < prov.NumSats(); sat++ {
		b := state.Battery(sat)
		for slot := 0; slot < prov.Horizon(); slot++ {
			if b.LevelAt(slot) < -1e-6 {
				t.Fatalf("battery %d below empty at slot %d", sat, slot)
			}
		}
	}
	// Link over-capacity would have errored inside ReserveLink already.
	t.Logf("accepted %d/40 saturating requests", accepted)
}

func TestEnergyPricingSteersAwayFromDepletedSatellites(t *testing.T) {
	state := newTestStack(t, 0)
	c := newCEAR(t, state, Options{})
	req := routableRequest(t, state, 1, 1000, 1)
	// Route once to discover the natural path.
	d1, err := c.Handle(req)
	if err != nil || !d1.Accepted {
		t.Fatalf("setup: %v %v", err, d1.Reason)
	}
	// Drain a mid-path satellite's battery to ~95% deficit.
	path := d1.Plan.Paths[0].Path
	if path.Hops() < 3 {
		t.Skip("path too short to have a relay")
	}
	relay := path.Nodes[2]
	b := state.Battery(relay)
	drain := b.CapacityJ()*0.95 - b.DeficitAt(req.StartSlot)
	if drain > 0 {
		// Consume enough to create a standing deficit at the slot.
		if err := b.Consume(req.StartSlot, drain+b.SolarRemainingAt(req.StartSlot)); err != nil {
			t.Skipf("could not drain battery: %v", err)
		}
	}
	req2 := req
	req2.ID = 2
	d2, err := c.Handle(req2)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Accepted {
		t.Skipf("second request rejected: %s", d2.Reason)
	}
	for _, n := range d2.Plan.Paths[0].Path.Nodes {
		if n == relay {
			// Using the drained relay is allowed only if it was truly
			// the cheapest option; with exponential pricing at λ≈0.95
			// that is implausible when alternatives exist.
			t.Logf("warning: second path reused drained relay %d", relay)
		}
	}
}

func TestHandleRateVector(t *testing.T) {
	state := newTestStack(t, 0)
	c := newCEAR(t, state, Options{})
	base := routableRequest(t, state, 1, 1000, 3)
	base.RateVector = []float64{400, 1800, 900}
	base.RateMbps = 0 // vector takes precedence; flat value unused
	d, err := c.Handle(base)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	// Each slot must have reserved exactly its vector entry on the first
	// hop's link.
	for i, sp := range d.Plan.Paths {
		view := sp.Path
		key := netstate.MakeLinkKey(
			state.Provider().GlobalID(base.Src), view.Nodes[1])
		if got := state.LinkUsedMbps(key, sp.Slot); got != base.RateVector[i] {
			t.Errorf("slot %d reserved %v, want %v", sp.Slot, got, base.RateVector[i])
		}
	}
}

func TestHandleRejectsBadVector(t *testing.T) {
	state := newTestStack(t, 0)
	c := newCEAR(t, state, Options{})
	req := routableRequest(t, state, 1, 1000, 3)
	req.RateVector = []float64{100} // wrong length
	if _, err := c.Handle(req); err == nil {
		t.Error("bad vector length should error")
	}
}

// TestLookAheadPairsChangeNoDecision feeds one request stream to a CEAR
// with the search's look-ahead hook and to one without: pairing two
// states' energy sums in one loop may change when a price is computed,
// never a decision, a price or a plan.
func TestLookAheadPairsChangeNoDecision(t *testing.T) {
	paired := newCEAR(t, newTestStack(t, 0), Options{})
	single := newCEAR(t, newTestStack(t, 0), Options{})
	single.search.LookAhead = nil
	pairs := 0
	paired.search.LookAhead = func(sat int, in graph.EdgeClass, nextSat int, nextIn graph.EdgeClass) {
		e := &paired.transit[transitKey(nextSat, transitRole(nextIn, graph.ClassISL))]
		cached := e.epoch == paired.epoch
		paired.priceAhead(sat, in, nextSat, nextIn)
		if !cached && e.epoch == paired.epoch {
			pairs++
		}
	}
	accepted := 0
	for i := 0; i < 60; i++ {
		req := routableRequest(t, paired.state, i, 400+100*float64(i%17), 1+i%3)
		dp, err := paired.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := single.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dp, ds) {
			t.Fatalf("request %d: decisions diverge\nwith look-ahead:    %+v\nwithout look-ahead: %+v", i, dp, ds)
		}
		if dp.Accepted {
			accepted++
		}
	}
	if accepted == 0 || pairs == 0 {
		t.Fatalf("accepted %d requests, formed %d pairs: the comparison is vacuous", accepted, pairs)
	}
	t.Logf("accepted %d/60, %d pairs formed", accepted, pairs)
	for _, c := range []*CEAR{paired, single} {
		if err := c.state.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRefillsSkipThePast is the counter-level pin of refilling unit-price
// tables from the slot being searched: on a stream that arrives through
// the second half of the horizon — every battery's deficit span starts
// behind most requests — a search must make at most 0.7× the price
// look-ups of an instance that refills whole spans, and decide what it and
// the generic path decide. Going back to whole-span refills fails here,
// not only in the benchmark.
func TestRefillsSkipThePast(t *testing.T) {
	// A tenth of the paper's panel: a slot's solar no longer covers a
	// booking's draw, so deficits last to the end of the horizon, as they
	// do for tens of slots on a loaded paper-scale ledger.
	ecfg := netstate.DefaultEnergyConfig()
	ecfg.PanelWatts = 2
	regFrom, regWhole := obs.New(), obs.New()
	from := newCEAR(t, newTestStackWith(t, 200, ecfg), Options{Obs: regFrom})
	whole := newCEAR(t, newTestStackWith(t, 200, ecfg), Options{Obs: regWhole})
	// The reference refills whole spans with no switch in CEAR: whenever it
	// is asked for a transit price it first fills that satellite's table
	// from slot 0, so its own fill — from the slot searched — finds the
	// table current and looks nothing up. It prices single-lane, so no
	// look-ahead the search never uses inflates its count.
	whole.search.LookAhead = nil
	whole.search.Transit = func(node int, in, out graph.EdgeClass) float64 {
		whole.state.Battery(node).FillUnitPrices(&whole.units[node], 0, whole.unitPrice)
		return whole.priceTransit(node, in, out)
	}
	generic := newCEAR(t, newTestStackWith(t, 200, ecfg), Options{Scratch: netstate.NewReferenceScratch()})

	// The second-half slots in which both cities see a satellite; the
	// stream walks them in order, single-slot bookings.
	prov := from.state.Provider()
	var slots []int
	for slot := prov.Horizon() / 2; slot < prov.Horizon(); slot++ {
		if bothCovered(t, prov, slot) {
			slots = append(slots, slot)
		}
	}
	if len(slots) < 2 {
		t.Skip("fewer than two routable slots in the second half of the horizon")
	}
	const n = 400
	accepted := 0
	for i := 0; i < n; i++ {
		slot := slots[i*len(slots)/n]
		req := workload.Request{
			ID: i, Src: groundEP(0), Dst: groundEP(1),
			ArrivalSlot: slot, StartSlot: slot, EndSlot: slot,
			RateMbps: 20 + 10*float64(i%17), Valuation: 2.3e9,
		}
		df, err := from.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*CEAR{"whole-span refills": whole, "the generic path": generic} {
			d, err := c.Handle(req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(df, d) {
				t.Fatalf("request %d: decisions diverge\nrefills from the slot searched: %+v\n%s: %+v", i, df, name, d)
			}
		}
		if df.Accepted {
			accepted++
		}
	}
	perSearch := func(reg *obs.Registry) float64 {
		return float64(reg.Counter("pricing.lut_lookups").Value()) / float64(reg.Counter("core.slot_searches").Value())
	}
	got, ref := perSearch(regFrom), perSearch(regWhole)
	t.Logf("accepted %d/%d; %.1f look-ups per search, %.1f with whole-span refills (%.2f×)", accepted, n, got, ref, got/ref)
	if accepted < n/4 {
		t.Fatalf("accepted %d of %d requests: too few deficits for the comparison to mean anything", accepted, n)
	}
	if got > 0.7*ref {
		t.Fatalf("%.1f price look-ups per search, more than 0.7× the %.1f of whole-span refills", got, ref)
	}
}

// loadLedger feeds n requests between the two cities to c, windows and
// rates spread over the horizon, and returns how many were accepted.
func loadLedger(t *testing.T, c *CEAR, n int) int {
	t.Helper()
	prov := c.state.Provider()
	accepted := 0
	for i := 0; i < n; i++ {
		dur := 1 + i%3
		start := (i * 7) % (prov.Horizon() - dur)
		d, err := c.Handle(workload.Request{
			ID: i, Src: groundEP(0), Dst: groundEP(1),
			ArrivalSlot: start, StartSlot: start, EndSlot: start + dur - 1,
			RateMbps: 300 + 100*float64(i%17), Valuation: 2.3e9,
		})
		if err != nil {
			t.Fatal(err)
		}
		if d.Accepted {
			accepted++
		}
	}
	return accepted
}

// TestIdleISLCostIsTheCostFunctionsOwn checks the one thing the idle-ISL
// shortcut takes on trust: that what CEAR declares for an unreserved ISL
// is, to the bit, what its cost function returns for it. Every pricing
// variant loads a ledger with 240 requests; then, over a sweep of demands
// on every slot, each ISL the search view offers whose ledger cell is
// empty must cost search.EdgeCost(key, ClassISL, capacity, 0), and the whole edge
// walk — loaded and masked edges included — must equal the generic
// View's. The last round rebuilds the pricer over the loaded State with
// another μ, as the adaptive controller does every window.
func TestIdleISLCostIsTheCostFunctionsOwn(t *testing.T) {
	steeper, err := pricing.Derive(4, 2, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		opts    Options
		rebuild *pricing.Params
	}{
		{name: "CEAR"},
		{name: "CEAR-NE", opts: Options{DisableEnergyPricing: true}},
		{name: "CEAR-AA", opts: Options{DisableAdmission: true}},
		{name: "CEAR-LIN", opts: Options{LinearPricing: true}},
		{name: "adaptive rebuild", rebuild: &steeper},
	} {
		state := newTestStack(t, 0)
		c := newCEAR(t, state, tc.opts)
		if accepted := loadLedger(t, c, 240); accepted == 0 {
			t.Fatalf("%s: accepted none of 240: the ledger never loaded", tc.name)
		}
		if tc.rebuild != nil {
			opts := tc.opts
			opts.Pricing = *tc.rebuild
			c = newCEAR(t, state, opts)
		}
		prov := state.Provider()
		idle, loaded := 0, 0
		for slot := 0; slot < prov.Horizon(); slot++ {
			for _, demand := range []float64{1, 337.5, 1250, 4000, c.islCap, 1.5 * c.islCap} {
				c.beginSearch(slot, demand)
				fv, err := c.scratch.BuildView(state, slot, groundEP(0), groundEP(1), demand, c.search.EdgeCost)
				if err != nil {
					t.Fatal(err)
				}
				fv.IdleISLCost = c.search.IdleISLCost
				gv, err := netstate.NewView(state, slot, groundEP(0), groundEP(1), demand, c.search.EdgeCost)
				if err != nil {
					t.Fatal(err)
				}
				for sat := 0; sat < prov.NumSats(); sat++ {
					var want, got []graph.Edge
					gv.VisitNeighbors(sat, func(e graph.Edge) bool { want = append(want, e); return true })
					fv.VisitNeighbors(sat, func(e graph.Edge) bool { got = append(got, e); return true })
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s slot %d demand %v sat %d: edges differ\ngeneric: %+v\nflat:    %+v", tc.name, slot, demand, sat, want, got)
					}
					for _, e := range got {
						if e.Class != graph.ClassISL {
							continue
						}
						key := fv.LinkKeyFor(sat, e.To)
						if state.LinkUsedMbps(key, slot) != 0 {
							loaded++
							continue
						}
						idle++
						own := c.search.EdgeCost(key, graph.ClassISL, c.islCap, 0)
						if demand > c.islCap {
							own = math.Inf(1) // masked: the demand fits no ISL
						}
						if math.Float64bits(e.Cost) != math.Float64bits(own) {
							t.Fatalf("%s slot %d demand %v: idle ISL %d->%d costs %v, the cost function says %v",
								tc.name, slot, demand, sat, e.To, e.Cost, own)
						}
					}
				}
			}
		}
		if idle == 0 || loaded == 0 {
			t.Fatalf("%s: compared %d idle and %d loaded ISL edges; need both", tc.name, idle, loaded)
		}
		if err := state.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTransitRolesShareOneLine pins the transit cache's layout: the four
// roles a search can ask about map to the four entries of their own
// satellite, a class pair no search produces panics instead of landing on
// another role's entry, and a wrapped epoch does not revive old entries.
func TestTransitRolesShareOneLine(t *testing.T) {
	classes := []graph.EdgeClass{graph.ClassISL, graph.ClassUSL}
	for _, sat := range []int{0, 1, 95} {
		seen := map[int]bool{}
		for _, in := range classes {
			for _, out := range classes {
				key := transitKey(sat, transitRole(in, out))
				if key < sat*transitRoles || key >= (sat+1)*transitRoles || seen[key] {
					t.Fatalf("sat %d role (%d,%d): entry %d is shared or outside [%d,%d)", sat, in, out, key, sat*transitRoles, (sat+1)*transitRoles)
				}
				seen[key] = true
			}
		}
	}
	for _, pair := range [][2]graph.EdgeClass{
		{graph.ClassNone, graph.ClassISL}, {graph.ClassNone, graph.ClassUSL},
		{graph.ClassISL, graph.ClassNone}, {graph.ClassUSL, graph.ClassNone},
		{graph.ClassNone, graph.ClassNone}, {3, graph.ClassISL}, {graph.ClassISL, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("transitRole(%d, %d) returned instead of panicking", pair[0], pair[1])
				}
			}()
			transitRole(pair[0], pair[1])
		}()
	}

	c := newCEAR(t, newTestStack(t, 0), Options{})
	if got, want := len(c.transit), c.state.Provider().NumSats()*transitRoles; got != want {
		t.Fatalf("transit cache holds %d entries, want %d (four per satellite)", got, want)
	}
	c.beginSearch(0, 1000)
	c.transit[5] = transitEntry{value: 42, epoch: c.epoch}
	c.epoch = math.MaxUint32
	c.beginSearch(0, 1000)
	for i, e := range c.transit {
		if e.epoch == c.epoch {
			t.Fatalf("entry %d reads as current after the epoch wrapped", i)
		}
	}
}
