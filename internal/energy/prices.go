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
	// unit is a window over slots [from, top], top = min(last+1, horizon−1)
	// — the last slot a walk from inside it reads — and empty when from
	// lies past top: unit[t−from] is slot t's price. That is
	// price(UtilizationAt(t)) inside [first, last] and exactly zero
	// outside it — what price returns for an empty slot (μ^0 − 1).
	// [first, last] is the part of the battery's deficit span at or after
	// from, empty (first == last+1) when from lies past the span; no slot
	// of [from, first) holds a deficit, so unit prices every slot of the
	// window, and every slot past it is priced at zero. Nil until the
	// battery first holds a deficit; the backing array is kept across
	// refills.
	unit        []float64
	first, last int
	// from is the earliest slot the table answers for, and the window's
	// base: the lowest slot FillUnitPrices was asked for since the table
	// last went stale.
	from int
	// lastSunny is the last slot of [first, last] whose unclaimed solar
	// is non-zero, -1 when there is none. A slot that carries a deficit
	// has had its solar claimed, so sunny slots are the gaps between
	// deficit runs and refunded slots — the only places inside the span
	// where a walk's outstanding deficit can change.
	lastSunny int
	// stamp is the battery stamp the table is current for.
	stamp uint64
	// widest is the most slots the window has spanned, what its array is
	// sized from.
	widest int
}

// FillUnitPrices brings u up to date with the ledger for pricing
// consumptions in slot from or later — Eq. (12) sums over the slots a
// consumption persists into, none of them earlier than its own. A table
// that is current and already reaches down to from costs two
// comparisons. A current one asked for an earlier slot extends downwards
// over the part it lacks: same stamp, same ledger, so it ends up holding
// what one fill from the lower slot would have written. A stale one is
// emptied and refilled over the window from `from` on, so no fill costs
// more than O(deficit span) and none prices a slot behind the one asked
// for. u stays empty (and prices every slot at zero) while the battery
// has never held a deficit.
func (b *Battery) FillUnitPrices(u *UnitPrices, from int, price func(utilization float64) float64) {
	if u.unit != nil && u.stamp == b.stamp {
		if from < u.from {
			u.extendDown(b, from, price)
		}
		return
	}
	if u.unit == nil {
		if b.firstDeficit > b.lastDeficit {
			return
		}
		u.unit = []float64{} // live from here on; extendDown allocates
	}
	// A restore can move the span's bounds back in, and the slot asked for
	// moves on: the window restarts empty, keeping its backing array.
	u.unit = u.unit[:0]
	u.last = b.lastDeficit
	u.first = u.last + 1
	u.lastSunny = -1
	u.stamp = b.stamp
	u.extendDown(b, from, price)
}

// extendDown grows the window down to from, shifting what it holds up
// (or into a larger array), prices the slots of the battery's deficit span
// that lie at or after from and below u.first, and makes from the slot
// the table answers from. lastSunny only moves when the range above held
// no sunny slot: a later one stays the last.
func (u *UnitPrices) extendDown(b *Battery, from int, price func(utilization float64) float64) {
	top := min(u.last+1, len(b.cell)-1)
	if n := top + 1 - from; n > len(u.unit) {
		grow := n - len(u.unit)
		if n <= cap(u.unit) {
			u.unit = u.unit[:n]
			copy(u.unit[grow:], u.unit)
		} else {
			grown := make([]float64, n, windowCap(n, len(b.cell)))
			copy(grown[grow:], u.unit)
			u.unit = grown
		}
		clear(u.unit[:grow])
		u.widest = max(u.widest, n)
	}
	lo := max(b.firstDeficit, from)
	sunny := -1
	for t := lo; t < u.first; t++ {
		if v := b.cell[t]; v < 0 {
			u.unit[t-from] = price(b.UtilizationAt(t))
		} else if v > 0 {
			sunny = t
		}
	}
	if u.lastSunny < 0 {
		u.lastSunny = sunny
	}
	u.first = min(u.first, lo)
	u.from = from
}

// windowCap is the capacity a window of n slots is allocated with: n
// rounded up to a whole sixth of the horizon, within it, so a window that
// creeps by a slot or two reuses its array. At the paper scale (64-slot
// blocks) that is ≈ 2 100 reallocations a 960-request lap against
// ≈ 36 800 for exact sizes (EXPERIMENTS.md).
func windowCap(n, horizon int) int {
	block := max(horizon/6, 1)
	return max(n, min((n+block-1)/block*block, horizon))
}

// Slots returns the most slots the table's window has spanned and how
// many its array holds: at most that, rounded up to a sixth of the
// horizon.
func (u *UnitPrices) Slots() (widest, held int) { return u.widest, cap(u.unit) }

// at returns the table's prices from slot ta on, for a walk from ta: nil
// past the window, where every slot is priced at zero.
func (u *UnitPrices) at(ta int) []float64 {
	if i := ta - u.from; uint(i) < uint(len(u.unit)) {
		return u.unit[i:]
	}
	return nil
}

// PriceDeficit prices, without mutating the ledger, the deficit that
// consuming joules in slot ta would add: Σ_t unit[t]·Ω̄(ta, t), the
// energy term of Eq. (12) for one (satellite, slot). u must be current
// for ta (FillUnitPrices from ta or an earlier slot; anything else is a
// caller bug and panics); nil prices every slot at zero. feasible is false
// when the consumption would breach constraint (7c) at some slot; cost
// is then meaningless.
//
// It equals a VisitDeficit walk that checks
// DeficitAt(t)+outstanding <= capacity·(1+1e-12) and adds
// price(UtilizationAt(t))·outstanding per slot, bit for bit, but almost
// never reads the ledger: when maxDeficit+joules fits
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
			if u.unit != nil && uint(ta) < uint(u.from) {
				panic("energy: unit-price table asked about a slot before the one it was filled from")
			}
			unit = u.at(ta)
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
// lands: a walk tests deficit(t)+outstanding <= limit with
// deficit(t) <= maxDeficit and outstanding <= joules, and float addition
// is monotone in both operands. False for a non-positive or NaN draw,
// which the kernels leave to walk.
func (b *Battery) fits(joules float64) bool {
	return joules > 0 && b.maxDeficit+joules <= b.limit()
}

// constantRun returns the unit prices a consumption of joules in slot ta
// is summed over when its outstanding deficit stays joules to the end of
// the span: ta lies inside the filled range, no sunny slot lies at or
// after it, and the draw fits. The run stops at the last deficit slot:
// from there on unit[t] is +0 and cost + 0·J == cost. ok is false for
// every other lane.
func (b *Battery) constantRun(ta int, joules float64, u *UnitPrices) (run []float64, ok bool) {
	if u == nil || u.unit == nil || ta < u.first || ta > u.last || ta <= u.lastSunny || !b.fits(joules) {
		return nil, false
	}
	return u.unit[ta-u.from : u.last+1-u.from], true
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
