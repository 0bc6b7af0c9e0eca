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
	// for the battery's deficit span [first, last] — the last slot a walk
	// from inside it reads — and empty when from lies past top:
	// unit[t−from] is slot t's price. That is price(UtilizationAt(t))
	// inside the span and exactly zero outside it — what price returns for
	// an empty slot (μ^0 − 1). Nil until the battery first holds a
	// deficit; the backing array is kept across the refills it fits.
	unit []float64
	// from is the earliest slot the table answers for, and the window's
	// base: the slot of the last refill, which is the lowest slot
	// FillUnitPrices was asked for since the table last went stale.
	from int
	// lastSunny is the last slot of the deficit span at or after from
	// whose unclaimed solar is non-zero, -1 when there is none. A slot
	// that carries a deficit has had its solar claimed, so sunny slots
	// are the gaps between deficit runs and refunded slots — the only
	// places inside the span where a walk's outstanding deficit can change.
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
// comparisons. Any other — stale, or current but asked for an earlier
// slot — is refilled over the window from `from` on, so no fill costs
// more than O(deficit span) and none prices a slot behind the one asked
// for. u stays nil (and prices every slot at zero) while the battery has
// never held a deficit.
func (b *Battery) FillUnitPrices(u *UnitPrices, from int, price func(utilization float64) float64) {
	if u.unit != nil && u.stamp == b.stamp && from >= u.from {
		return
	}
	if u.unit == nil && b.firstDeficit > b.lastDeficit {
		return
	}
	// A restore can move the span's bounds back in, and the slot asked for
	// moves on: the window is rebuilt, in its backing array if it fits.
	// make never returns nil, so a live table with an empty window stays
	// live.
	n := max(min(b.lastDeficit+1, len(b.cell)-1)+1-from, 0)
	if u.unit == nil || n > cap(u.unit) {
		u.unit = make([]float64, n, windowCap(n, len(b.cell)))
	} else {
		u.unit = u.unit[:n]
		clear(u.unit)
	}
	u.widest = max(u.widest, n)
	lo := max(b.firstDeficit, from)
	u.lastSunny = -1
	for t := lo; t <= b.lastDeficit; t++ {
		if v := b.cell[t]; v < 0 {
			u.unit[t-from] = price(b.UtilizationAt(t))
		} else if v > 0 {
			u.lastSunny = t
		}
	}
	u.from, u.stamp = from, b.stamp
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
// never reads the ledger. When the table is current, ta lies inside the
// deficit span and the window, no sunny slot lies at or after it and
// maxDeficit+joules fits under the limit, no slot can fail and the
// outstanding deficit stays joules to the end of the span: the walk is
// cost += unit[t]·J over one array, a constant run that stops at the
// last deficit slot (from there on unit[t] is +0 and cost + 0·J == cost).
// Anything else — an empty or stale table, ta outside the span, a sunny
// slot ahead, a battery within joules of capacity — runs walk.
func (b *Battery) PriceDeficit(ta int, joules float64, u *UnitPrices) (cost float64, feasible bool) {
	if u == nil || u.unit == nil || u.stamp != b.stamp || ta < b.firstDeficit || ta > b.lastDeficit ||
		ta < u.from || ta <= u.lastSunny || !b.fits(joules) {
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
	for _, p := range u.unit[ta-u.from : b.lastDeficit+1-u.from] {
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
