package energy

import (
	"math"
	"math/rand"
	"testing"
)

// testPrice is a stand-in for CEAR's unit price: zero at zero and
// strictly convex, like μ^λ − 1.
func testPrice(u float64) float64 { return math.Expm1(3 * u) }

// wholeHorizon spreads a table's window over a horizon-long array, zero
// outside it: what a table covering every slot would hold.
func wholeHorizon(u *UnitPrices, horizon int) []float64 {
	out := make([]float64, horizon)
	if u.unit != nil {
		copy(out[u.from:], u.unit)
	}
	return out
}

// referenceWalk prices and checks one consumption the way CEAR did before
// the table walk: a VisitDeficit closure that tests
// DeficitAt+outstanding against limit and adds
// price(UtilizationAt)·outstanding per slot.
func referenceWalk(b *Battery, ta int, joules, limit float64) (cost float64, failSlot int, failDeficit float64) {
	failSlot = -1
	b.VisitDeficit(ta, joules, func(t int, outstanding float64) bool {
		if sum := b.DeficitAt(t) + outstanding; sum > limit {
			failSlot, failDeficit = t, sum
			return false
		}
		cost += testPrice(b.UtilizationAt(t)) * outstanding
		return true
	})
	return cost, failSlot, failDeficit
}

// kernelTally counts which cases a sweep of checkWalks put PriceDeficit
// through, so a test can require that none of them was vacuous.
type kernelTally struct {
	runs, fallbacks int // priced by the constant-run loop / by walk
	// fell back: ta outside the span / a sunny slot ahead / draw does not fit
	outsideSpan, sunnyAhead, nearCap int
	infeasible                       int
}

// checkWalks compares the table walk and PriceDeficit with the reference
// at every slot for a few draw sizes, bit for bit, and the table itself
// with the price of every slot's utilization.
func checkWalks(t *testing.T, step int, b *Battery, tab *UnitPrices, draws []float64, tally *kernelTally) {
	t.Helper()
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	b.FillUnitPrices(tab, 0, testPrice)
	unit := wholeHorizon(tab, b.Horizon())
	for tt := 0; tt < b.Horizon(); tt++ {
		if want := testPrice(b.UtilizationAt(tt)); unit[tt] != want {
			first, last := b.DeficitSpan()
			t.Fatalf("step %d: unit[%d] = %v, want %v (deficit %v, span [%d, %d])",
				step, tt, unit[tt], want, b.DeficitAt(tt), first, last)
		}
	}
	for _, limit := range []float64{b.CapacityJ() * (1 + 1e-12), b.CapacityJ()} {
		for ta := 0; ta < b.Horizon(); ta++ {
			for _, j := range draws {
				wantCost, wantSlot, wantDef := referenceWalk(b, ta, j, limit)
				cost, slot, def := b.walk(ta, j, unit[ta:], limit)
				if slot != wantSlot || math.Float64bits(def) != math.Float64bits(wantDef) ||
					(slot < 0 && math.Float64bits(cost) != math.Float64bits(wantCost)) {
					t.Fatalf("step %d: walk(%d, %v, limit %v) = (%v, %d, %v), reference (%v, %d, %v)",
						step, ta, j, limit, cost, slot, def, wantCost, wantSlot, wantDef)
				}
				if _, noPriceSlot, noPriceDef := b.walk(ta, j, nil, limit); noPriceSlot != wantSlot ||
					math.Float64bits(noPriceDef) != math.Float64bits(wantDef) {
					t.Fatalf("step %d: unpriced walk(%d, %v) fails at %d, reference %d", step, ta, j, noPriceSlot, wantSlot)
				}
				if limit != b.limit() {
					continue
				}
				if cost, ok := b.PriceDeficit(ta, j, tab); ok != (wantSlot < 0) ||
					(ok && math.Float64bits(cost) != math.Float64bits(wantCost)) {
					t.Fatalf("step %d: PriceDeficit(%d, %v) = (%v, %v), reference (%v, fails at %d)",
						step, ta, j, cost, ok, wantCost, wantSlot)
				}
				if b.Feasible(ta, j) != (wantSlot < 0) {
					t.Fatalf("step %d: Feasible(%d, %v) = %v, reference fails at %d", step, ta, j, !(wantSlot < 0), wantSlot)
				}
				tally.note(b, tab, ta, j, wantSlot < 0)
			}
		}
	}
}

// note classifies one PriceDeficit call by the conditions the kernel
// branches on.
func (k *kernelTally) note(b *Battery, tab *UnitPrices, ta int, joules float64, feasible bool) {
	if !feasible {
		k.infeasible++
	}
	switch {
	case tab.unit == nil:
		k.fallbacks++
	case !b.fits(joules):
		k.fallbacks++
		k.nearCap++
	case ta < tab.first || ta > tab.last:
		k.fallbacks++
		k.outsideSpan++
	case ta <= tab.lastSunny:
		k.fallbacks++
		k.sunnyAhead++
	default:
		k.runs++
	}
}

// ledgerDriver puts one strict battery through a seeded random sequence
// of Consume / begin / rollback operations: after a begin, consumptions
// go through an undo log, and a rollback returns the ledger to where the
// last begin found it.
type ledgerDriver struct {
	rng  *rand.Rand
	b    *Battery
	undo Undo
	open bool
}

const driverHorizon = 48

func newLedgerDriver(t *testing.T, seed int64) *ledgerDriver {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	solar := make([]float64, driverHorizon)
	for i := range solar {
		if i%16 < 10 { // sunlit two thirds of each orbit
			solar[i] = 30 + 10*rng.Float64()
		}
	}
	return &ledgerDriver{rng: rng, b: mustBattery(t, 2000, solar, false)}
}

// step applies one random operation and reports whether the ledger
// changed.
func (d *ledgerDriver) step() (mutated bool) {
	rng, b := d.rng, d.b
	switch op := rng.Intn(10); {
	case op < 6:
		ta, joules := rng.Intn(driverHorizon), 400*rng.Float64()
		if d.open {
			return d.undo.Consume(b, ta, joules) == nil
		}
		return b.Consume(ta, joules) == nil
	case op < 8:
		d.undo.Reset()
		d.open = true
		return false
	case d.open:
		// Rollback: the deficit span can shrink back, leaving table
		// entries of the abandoned state outside it.
		mutated = d.undo.Len() > 0
		d.undo.Rollback()
		return mutated
	}
	return false
}

// driverDraws are below one slot's solar, above it, within reach of the
// 2000 J capacity once the ledger is loaded, and above capacity.
var driverDraws = []float64{25, 180, 700, 2500}

// TestTableWalkMatchesVisitDeficit drives strict batteries through seeded
// random Consume / begin / rollback sequences and, after every step,
// requires the table walk and PriceDeficit to equal the VisitDeficit
// reference bit for bit: cost, feasibility and failing slot — whichever
// way PriceDeficit got there.
func TestTableWalkMatchesVisitDeficit(t *testing.T) {
	var tally kernelTally
	for seed := int64(1); seed <= 8; seed++ {
		d := newLedgerDriver(t, seed)
		var tab UnitPrices
		checkWalks(t, -1, d.b, &tab, driverDraws, &tally)
		for step := 0; step < 120; step++ {
			before := d.b.Stamp()
			if d.step() && d.b.Stamp() == before {
				t.Fatalf("seed %d step %d: ledger mutated but stamp stayed %d", seed, step, before)
			}
			checkWalks(t, step, d.b, &tab, driverDraws, &tally)
		}
	}
	t.Logf("%+v", tally)
	if tally.runs == 0 || tally.sunnyAhead == 0 || tally.outsideSpan == 0 || tally.nearCap == 0 || tally.infeasible == 0 {
		t.Fatalf("a case never occurred: %+v", tally)
	}
}

// TestRestoreMovesFirstDeficitBackUp pins the case that only showed on
// the wide workload: a table filled while an early consumption was in
// place must not keep that consumption's prices once a rollback moves the
// first-deficit bound back up past them.
func TestRestoreMovesFirstDeficitBackUp(t *testing.T) {
	b := mustBattery(t, 5000, constSolar(40, 20), false)
	if err := b.Consume(25, 600); err != nil {
		t.Fatal(err)
	}
	var tab UnitPrices
	draws := []float64{50, 900}
	checkWalks(t, 0, b, &tab, draws, new(kernelTally))
	firstBefore, _ := b.DeficitSpan()

	var undo Undo
	if err := undo.Consume(b, 5, 700); err != nil {
		t.Fatal(err)
	}
	if first, _ := b.DeficitSpan(); first != 5 {
		t.Fatalf("first deficit = %d after consuming at slot 5", first)
	}
	checkWalks(t, 1, b, &tab, draws, new(kernelTally)) // table now holds prices from slot 5 on

	undo.Rollback()
	if first, _ := b.DeficitSpan(); first != firstBefore {
		t.Fatalf("first deficit = %d after rollback, want %d", first, firstBefore)
	}
	checkWalks(t, 2, b, &tab, draws, new(kernelTally))
	if cost, ok := b.PriceDeficit(5, 900, &tab); !ok || cost == 0 {
		t.Fatalf("PriceDeficit(5, 900) = (%v, %v), want a positive feasible price", cost, ok)
	}
}

// TestStampMovesOnEveryMutation pins the stamp contract that table owners
// rely on.
func TestStampMovesOnEveryMutation(t *testing.T) {
	b := mustBattery(t, 1000, constSolar(10, 5), false)
	last := b.Stamp()
	moved := func(what string) {
		t.Helper()
		if b.Stamp() <= last {
			t.Fatalf("%s: stamp %d did not advance past %d", what, b.Stamp(), last)
		}
		last = b.Stamp()
	}
	if err := b.Consume(2, 40); err != nil {
		t.Fatal(err)
	}
	moved("Consume")
	var undo Undo
	if err := undo.Consume(b, 3, 40); err != nil {
		t.Fatal(err)
	}
	moved("logged Consume")
	undo.Rollback()
	moved("Rollback")
	undo.Rollback()
	if b.Stamp() != last {
		t.Fatalf("rolling back an empty log moved the stamp to %d", b.Stamp())
	}

	// Reads, trials and rejected consumptions leave it alone.
	b.Feasible(0, 10)
	_ = b.TrialConsume(0, 10)
	b.PriceDeficit(0, 10, nil)
	if err := b.Consume(0, 1e9); err == nil {
		t.Fatal("infeasible consume succeeded")
	}
	if err := b.Consume(0, 0); err != nil {
		t.Fatal(err)
	}
	if b.Stamp() != last {
		t.Fatalf("stamp moved to %d on a non-mutating call", b.Stamp())
	}
}

// TestCheckInvariantsCatchesBrokenBounds makes sure the check is not
// vacuous: a deficit outside the recorded span, one above capacity and a
// NaN cell are reported.
func TestCheckInvariantsCatchesBrokenBounds(t *testing.T) {
	b := mustBattery(t, 1000, constSolar(10, 0), false)
	if err := b.Consume(4, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	b.firstDeficit = 6
	if err := b.CheckInvariants(); err == nil {
		t.Fatal("a deficit before firstDeficit went unreported")
	}
	b.firstDeficit = 4
	b.cell[7] = -2 * b.capacityJ
	if err := b.CheckInvariants(); err == nil {
		t.Fatal("a deficit above capacity went unreported")
	}
	// NaN compares false both ways: it reads as neither solar nor deficit.
	b.cell[7] = math.NaN()
	if err := b.CheckInvariants(); err == nil {
		t.Fatal("a NaN cell went unreported")
	}
}
