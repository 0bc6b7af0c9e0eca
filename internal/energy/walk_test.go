package energy

import (
	"math"
	"math/rand"
	"testing"
)

// testPrice is a stand-in for CEAR's unit price: zero at zero and
// strictly convex, like μ^λ − 1.
func testPrice(u float64) float64 { return math.Expm1(3 * u) }

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

// unitTable mimics the table's owner: it refills only when the stamp
// moved, over the spans FillUnitPrices reports.
type unitTable struct {
	unit        []float64
	first, last int
	stamp       uint64
	filled      bool
}

func (u *unitTable) sync(b *Battery) []float64 {
	if u.unit == nil {
		u.unit = make([]float64, b.Horizon())
		u.first, u.last = 0, -1
	}
	if !u.filled || u.stamp != b.Stamp() {
		u.first, u.last = b.FillUnitPrices(u.unit, u.first, u.last, testPrice)
		u.stamp, u.filled = b.Stamp(), true
	}
	return u.unit
}

// checkWalks compares the table walk with the reference at every slot for
// a few draw sizes, bit for bit, and the table itself with the price of
// every slot's utilization.
func checkWalks(t *testing.T, step int, b *Battery, tab *unitTable, draws []float64) {
	t.Helper()
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	unit := tab.sync(b)
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
				cost, slot, def := b.walk(ta, j, unit, limit)
				if slot != wantSlot || math.Float64bits(def) != math.Float64bits(wantDef) ||
					(slot < 0 && math.Float64bits(cost) != math.Float64bits(wantCost)) {
					t.Fatalf("step %d: walk(%d, %v, limit %v) = (%v, %d, %v), reference (%v, %d, %v)",
						step, ta, j, limit, cost, slot, def, wantCost, wantSlot, wantDef)
				}
				if _, noPriceSlot, noPriceDef := b.walk(ta, j, nil, limit); noPriceSlot != wantSlot ||
					math.Float64bits(noPriceDef) != math.Float64bits(wantDef) {
					t.Fatalf("step %d: unpriced walk(%d, %v) fails at %d, reference %d", step, ta, j, noPriceSlot, wantSlot)
				}
			}
		}
	}
}

// TestTableWalkMatchesVisitDeficit drives strict batteries through seeded
// random Consume / ConsumeTraced / Refund / snapshot-restore sequences
// and, after every step, requires the table walk to equal the
// VisitDeficit reference bit for bit: cost, feasibility and failing slot.
func TestTableWalkMatchesVisitDeficit(t *testing.T) {
	const horizon = 48
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		solar := make([]float64, horizon)
		for i := range solar {
			if i%16 < 10 { // sunlit two thirds of each orbit
				solar[i] = 30 + 10*rng.Float64()
			}
		}
		b := mustBattery(t, 2000, solar, false)
		snap := b.Clone()
		snapTaken := false
		var tab unitTable
		var steps []ConsumeStep
		draws := []float64{25, 180, 700, 2500}
		checkWalks(t, -1, b, &tab, draws)
		for step := 0; step < 120; step++ {
			before := b.Stamp()
			mutated := true
			switch op := rng.Intn(10); {
			case op < 4:
				mutated = b.Consume(rng.Intn(horizon), 400*rng.Float64()) == nil
			case op < 6:
				var err error
				n := len(steps)
				steps, err = b.ConsumeTraced(rng.Intn(horizon), 400*rng.Float64(), steps)
				mutated = err == nil && len(steps) > n
			case op < 7 && len(steps) > 0:
				i := rng.Intn(len(steps))
				b.Refund(steps[i])
				steps = append(steps[:i], steps[i+1:]...)
			case op < 8:
				snap.CopyFrom(b)
				snapTaken = true
				mutated = false
			case snapTaken:
				// Restore: the deficit span can shrink back, leaving table
				// entries of the abandoned state outside it.
				b.CopyFrom(snap)
				steps = steps[:0]
			default:
				mutated = false
			}
			if mutated && b.Stamp() == before {
				t.Fatalf("seed %d step %d: ledger mutated but stamp stayed %d", seed, step, before)
			}
			checkWalks(t, step, b, &tab, draws)
		}
	}
}

// TestRestoreMovesFirstDeficitBackUp pins the case that only showed on
// the wide workload: a table filled while an early consumption was in
// place must not keep that consumption's prices once a restore moves the
// first-deficit bound back up past them.
func TestRestoreMovesFirstDeficitBackUp(t *testing.T) {
	b := mustBattery(t, 5000, constSolar(40, 20), false)
	if err := b.Consume(25, 600); err != nil {
		t.Fatal(err)
	}
	var tab unitTable
	draws := []float64{50, 900}
	checkWalks(t, 0, b, &tab, draws)
	firstBefore, _ := b.DeficitSpan()

	snap := b.Clone()
	if err := b.Consume(5, 700); err != nil {
		t.Fatal(err)
	}
	if first, _ := b.DeficitSpan(); first != 5 {
		t.Fatalf("first deficit = %d after consuming at slot 5", first)
	}
	checkWalks(t, 1, b, &tab, draws) // table now holds prices from slot 5 on

	b.CopyFrom(snap)
	if first, _ := b.DeficitSpan(); first != firstBefore {
		t.Fatalf("first deficit = %d after restore, want %d", first, firstBefore)
	}
	checkWalks(t, 2, b, &tab, draws)
	if cost, ok := b.PriceDeficit(5, 900, tab.sync(b)); !ok || cost == 0 {
		t.Fatalf("PriceDeficit(5, 900) = (%v, %v), want a positive feasible price", cost, ok)
	}
}

// TestStampMovesOnEveryMutation pins the stamp contract that table owners
// and the two-phase abort rely on.
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
	steps, err := b.ConsumeTraced(3, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	moved("ConsumeTraced")
	b.Refund(steps[0])
	moved("Refund")
	snap := b.Clone()
	b.CopyFrom(snap)
	moved("CopyFrom")

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
// vacuous: a deficit outside the recorded span is reported.
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
	b.deficit[7] = 2 * b.capacityJ
	if err := b.CheckInvariants(); err == nil {
		t.Fatal("a deficit above capacity went unreported")
	}
}
