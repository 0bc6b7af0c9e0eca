package energy

// This file is the pricing side of the ledger: the per-slot unit-price
// table a pricer keeps per battery, and the kernels that price a
// consumption's deficit against it. Every kernel returns what walk
// returns, bit for bit — each shortcut skips work whose result is known
// without doing it, never reorders a float operation (DESIGN.md §6).

// UnitPrices is one pricer's per-slot unit-price table for one battery.
// The zero value is an empty table; FillUnitPrices brings it up to date
// and PriceDeficit reads it. A table belongs to one (pricer, battery)
// pair: the prices are a function of the pricer's μ as well as of the
// ledger.
type UnitPrices struct {
	// unit[t] is price(UtilizationAt(t)) inside [first, last], the
	// deficit span the table was last filled over, and exactly zero
	// outside it — what price returns for an empty slot (μ^0 − 1). Nil
	// until the battery first holds a deficit.
	unit        []float64
	first, last int
	// lastSunny is the last slot of [first, last] whose unclaimed solar
	// is non-zero, -1 when there is none. A slot that carries a deficit
	// has had its solar claimed, so sunny slots are the gaps between
	// deficit runs and refunded slots — the only places inside the span
	// where a walk's outstanding deficit can change.
	lastSunny int
	// stamp is the battery stamp the table is current for.
	stamp uint64
}

// FillUnitPrices brings u up to date with the ledger; a table that is
// current costs one comparison. Any other is zeroed over the span it was
// filled over and refilled over the current one, so no fill costs more
// than O(deficit span). u stays empty (and prices every slot at zero)
// while the battery has never held a deficit.
func (b *Battery) FillUnitPrices(u *UnitPrices, price func(utilization float64) float64) {
	if u.unit == nil {
		if b.firstDeficit > b.lastDeficit {
			return
		}
		u.unit = make([]float64, len(b.deficit))
	} else if u.stamp == b.stamp {
		return
	} else {
		// A restore can move the span's bounds back in: what the old
		// span held outside the new one must not survive.
		for t := u.first; t <= u.last; t++ {
			u.unit[t] = 0
		}
	}
	u.first, u.last = b.firstDeficit, b.lastDeficit
	u.lastSunny = -1
	u.stamp = b.stamp
	for t := u.first; t <= u.last; t++ {
		if b.deficit[t] != 0 {
			u.unit[t] = price(b.UtilizationAt(t))
		}
		if b.solarRemaining[t] != 0 {
			u.lastSunny = t
		}
	}
}

// PriceDeficit prices, without mutating the ledger, the deficit that
// consuming joules in slot ta would add: Σ_t unit[t]·Ω̄(ta, t), the
// energy term of Eq. (12) for one (satellite, slot). u must be current
// (FillUnitPrices); nil prices every slot at zero. feasible is false
// when the consumption would breach constraint (7c) at some slot; cost
// is then meaningless.
//
// It equals a VisitDeficit walk that checks
// DeficitAt(t)+outstanding <= capacity·(1+1e-12) and adds
// price(UtilizationAt(t))·outstanding per slot, bit for bit, but almost
// never reads the deficit or solar arrays: when maxDeficit+joules fits
// under the limit no slot can fail, and with no sunny slot ahead the
// outstanding deficit is a constant, so the walk is cost += unit[t]·J
// over one array (constantRun). Anything else — an empty table, ta
// outside the span, a sunny slot ahead, a battery within joules of
// capacity — runs walk.
func (b *Battery) PriceDeficit(ta int, joules float64, u *UnitPrices) (cost float64, feasible bool) {
	run, ok := b.constantRun(ta, joules, u)
	if !ok {
		var unit []float64
		if u != nil {
			unit = u.unit
		}
		cost, failSlot, _ := b.walk(ta, joules, unit, b.limit())
		return cost, failSlot < 0
	}
	b.instr.countDeficitWalk()
	for _, p := range run {
		cost += p * joules
	}
	return cost, true
}

// limit is the deficit a slot may hold: capacity plus the float dust
// feasibility tolerates.
func (b *Battery) limit() float64 { return b.capacityJ * (1 + 1e-12) }

// fits reports whether a consumption of joules is feasible wherever it
// lands: a walk tests deficit[t]+outstanding <= limit with
// deficit[t] <= maxDeficit and outstanding <= joules, and float addition
// is monotone in both operands. False for a non-positive or NaN draw,
// which the kernels leave to walk.
func (b *Battery) fits(joules float64) bool {
	return joules > 0 && b.maxDeficit+joules <= b.limit()
}

// constantRun returns the unit prices a consumption of joules in slot ta
// is summed over when its outstanding deficit stays joules to the end of
// the span: ta lies inside the span, no sunny slot lies at or after it,
// and the draw fits. The run stops at the last deficit slot: from there
// on unit[t] is +0 and cost + 0·J == cost. ok is false for every other
// lane.
func (b *Battery) constantRun(ta int, joules float64, u *UnitPrices) (run []float64, ok bool) {
	if u == nil || u.unit == nil || ta < u.first || ta > u.last || ta <= u.lastSunny || !b.fits(joules) {
		return nil, false
	}
	return u.unit[ta : u.last+1], true
}

// PriceDeficitPair prices two consumptions in slot ta — joules1 on b1,
// joules2 on b2 — in one loop with an accumulator each. Either sum adds
// its own terms in slot order, so each equals PriceDeficit's bit for
// bit; the two chains of dependent additions overlap instead of running
// one after the other. Only constant-run lanes pair (see constantRun):
// they are feasible by construction. ok is false, and nothing is priced
// or counted, when either lane is anything else.
func PriceDeficitPair(ta int, b1 *Battery, joules1 float64, u1 *UnitPrices, b2 *Battery, joules2 float64, u2 *UnitPrices) (cost1, cost2 float64, ok bool) {
	run1, ok1 := b1.constantRun(ta, joules1, u1)
	run2, ok2 := b2.constantRun(ta, joules2, u2)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	b1.instr.countDeficitWalk()
	b2.instr.countDeficitWalk()
	n := min(len(run1), len(run2))
	both1, both2 := run1[:n], run2[:n]
	for i, p := range both1 {
		cost1 += p * joules1
		cost2 += both2[i] * joules2
	}
	for _, p := range run1[n:] {
		cost1 += p * joules1
	}
	for _, p := range run2[n:] {
		cost2 += p * joules2
	}
	return cost1, cost2, true
}
