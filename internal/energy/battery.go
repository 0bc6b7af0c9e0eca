// Package energy implements the satellite energy model of §III-C of the
// paper: solar panels harvest a per-slot energy input, a battery stores
// up to a fixed capacity, and serving a request in slot T_a creates a
// *battery deficit* that persists into future slots until replenished by
// leftover solar input (Eqs. (2)–(5)).
//
// The ledger tracks, per satellite and slot t, one signed cell:
//
//   - cell[t] > 0 is α_s(t), solar energy still unclaimed in slot t after
//     all committed reservations;
//   - cell[t] < 0 is −(ϖ_s − b_s(t)), the total outstanding battery
//     deficit at the end of slot t across all committed reservations;
//   - cell[t] == 0 is neither.
//
// One cell holds both because no slot ever holds both: a consumption
// posts deficit in slot t only after claiming all of t's solar, and
// nothing but an undo rollback ever raises unclaimed solar again.
//
// The recurrence of Eq. (2) telescopes — once the max() clamps to zero it
// stays zero — so a single consumption's deficit profile is a strictly
// decreasing run that the ledger walks in O(absorption span).
package energy

import (
	"fmt"
	"math"
)

// Battery is one satellite's energy ledger over the simulation horizon.
// The zero value is not usable; construct with NewBattery.
type Battery struct {
	capacityJ float64
	// cell[t] is slot t's unclaimed solar when positive and its negated
	// deficit when negative (see the package comment).
	cell  []float64
	instr *Instruments

	// firstDeficit and lastDeficit enclose every slot with a non-zero
	// deficit (first > last while there is none). Consume widens them, an
	// Undo rollback restores them. The pricing walk uses lastDeficit to
	// stop early, a unit-price table (FillUnitPrices) is non-zero only
	// inside the span.
	firstDeficit int
	lastDeficit  int
	// maxDeficit is at least every slot's deficit: Consume raises it, an
	// Undo rollback restores it. Rounding is monotone, so
	// maxDeficit+joules <= limit proves that no slot of a joules-sized
	// consumption breaches limit without reading the ledger.
	maxDeficit float64
	// stamp counts ledger mutations (Consume, and each consumption an
	// Undo rolls back). It only ever grows, so anything derived from the
	// ledger — a unit-price table — is still current exactly when the
	// stamp it was taken at is.
	stamp uint64
}

// NewBattery builds a ledger with the given capacity (joules) and
// per-slot solar input (joules per slot). The solar slice is copied.
// Per the paper we start with a full battery and untouched solar input.
// Every battery enforces b_s(t) >= 0 (constraint (7c)): a consumption
// that would drive it below empty is refused.
func NewBattery(capacityJ float64, solarInputJ []float64) (*Battery, error) {
	if capacityJ <= 0 {
		return nil, fmt.Errorf("energy: capacity must be positive, got %v", capacityJ)
	}
	if len(solarInputJ) == 0 {
		return nil, fmt.Errorf("energy: empty solar input vector")
	}
	cell := make([]float64, len(solarInputJ))
	for t, s := range solarInputJ {
		if s < 0 || math.IsNaN(s) {
			return nil, fmt.Errorf("energy: invalid solar input %v at slot %d", s, t)
		}
		if s > 0 {
			cell[t] = s
		}
	}
	return &Battery{
		capacityJ:    capacityJ,
		cell:         cell,
		firstDeficit: len(solarInputJ),
		lastDeficit:  -1,
	}, nil
}

// NewFleet builds numSats ledgers over horizon slots for satellites with
// the given capacity, whose panels harvest harvestJ in every slot they
// are sunlit. sunlit(t) returns slot t's flags indexed by satellite.
// Every ledger's signed cells (solar while positive, deficit while
// negative) are carved from one numSats × horizon backing array, filled
// straight from the flags: no per-battery input vector is built, and a
// sweep of one slot across the fleet (DepletedSatCount, SumDeficitJ)
// steps through memory a horizon apart.
func NewFleet(numSats, horizon int, capacityJ, harvestJ float64, sunlit func(t int) []bool) ([]*Battery, error) {
	switch {
	case capacityJ <= 0:
		return nil, fmt.Errorf("energy: capacity must be positive, got %v", capacityJ)
	case horizon <= 0:
		return nil, fmt.Errorf("energy: horizon must be positive, got %d", horizon)
	case harvestJ < 0 || math.IsNaN(harvestJ):
		return nil, fmt.Errorf("energy: invalid solar input %v", harvestJ)
	}
	cells := make([]float64, numSats*horizon)
	bats := make([]Battery, numSats)
	fleet := make([]*Battery, numSats)
	for sat := range fleet {
		lo, hi := sat*horizon, (sat+1)*horizon
		bats[sat] = Battery{
			capacityJ:    capacityJ,
			cell:         cells[lo:hi:hi],
			firstDeficit: horizon,
			lastDeficit:  -1,
		}
		fleet[sat] = &bats[sat]
	}
	if harvestJ > 0 {
		for t := 0; t < horizon; t++ {
			for sat, lit := range sunlit(t)[:numSats] {
				if lit {
					cells[sat*horizon+t] = harvestJ
				}
			}
		}
	}
	return fleet, nil
}

// Instrument attaches (or with nil, detaches) the counters this ledger
// advances. Plain field write: attach before the run starts.
func (b *Battery) Instrument(in *Instruments) { b.instr = in }

// Horizon returns the number of slots the ledger covers.
func (b *Battery) Horizon() int { return len(b.cell) }

// CapacityJ returns the battery capacity ϖ_s.
func (b *Battery) CapacityJ() float64 { return b.capacityJ }

// DeficitAt returns the total outstanding deficit ϖ_s − b_s(t) at the end
// of slot t. Out-of-range slots report zero.
func (b *Battery) DeficitAt(t int) float64 {
	if t < 0 || t >= len(b.cell) {
		return 0
	}
	return deficitOf(b.cell[t])
}

// deficitOf is the deficit a cell holds: −v when negative, +0 otherwise
// (never −0, which the pricing LUT would read as a different key).
func deficitOf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return 0
}

// LevelAt returns the remaining battery energy b_s(t), per Eq. (4).
func (b *Battery) LevelAt(t int) float64 {
	return b.capacityJ - b.DeficitAt(t)
}

// SumDeficitJ returns the fleet-wide outstanding energy deficit
// Σ_s (ϖ_s − b_s(t)) at the end of slot t — the per-slot energy-debt
// telemetry behind the run report's time series. Allocation-free.
func SumDeficitJ(batteries []*Battery, t int) float64 {
	total := 0.0
	for _, b := range batteries {
		if b != nil {
			total += b.DeficitAt(t)
		}
	}
	return total
}

// UtilizationAt returns λ_s(t) = (ϖ_s − b_s(t)) / ϖ_s, per Eq. (9),
// clamped to [0, 1].
func (b *Battery) UtilizationAt(t int) float64 {
	if t < 0 || t >= len(b.cell) {
		return 0
	}
	u := deficitOf(b.cell[t]) / b.capacityJ
	switch {
	case u < 0:
		return 0
	case u > 1:
		return 1
	default:
		return u
	}
}

// SolarRemainingAt returns α_s(t), the unclaimed solar energy of slot t.
func (b *Battery) SolarRemainingAt(t int) float64 {
	if t < 0 || t >= len(b.cell) {
		return 0
	}
	if v := b.cell[t]; v > 0 {
		return v
	}
	return 0
}

// VisitDeficit walks, without mutating the ledger, the deficit profile
// Ω̄(ta, t) that consuming `joules` in slot ta would add: fn is invoked
// for every slot t >= ta while the outstanding deficit is positive, with
// the deficit value that would persist at the end of slot t. Returning
// false from fn stops the walk early.
//
// It is the reference form of the profile that CEAR's energy pricing
// (Eq. (12)'s second term sums price(t)·Ω̄(ta,t) over the deficit's
// lifetime) and every feasibility check follow; they run on walk, its
// closure-free twin, and the tests check walk against it.
func (b *Battery) VisitDeficit(ta int, joules float64, fn func(t int, outstanding float64) bool) {
	b.instr.countDeficitWalk()
	if joules <= 0 || ta < 0 || ta >= len(b.cell) {
		return
	}
	remaining := joules
	for t := ta; t < len(b.cell); t++ {
		// A cell without solar absorbs nothing: remaining − 0 is remaining.
		if v := b.cell[t]; v > 0 {
			if v >= remaining {
				return
			}
			remaining -= v
		}
		if !fn(t, remaining) {
			return
		}
	}
}

// Stamp returns the ledger's mutation count: it moves on every Consume
// and every rolled-back one, and never repeats, so a value derived from
// the ledger is current exactly while Stamp is unchanged.
func (b *Battery) Stamp() uint64 { return b.stamp }

// DeficitSpan returns bounds [first, last] that enclose every slot with
// a non-zero deficit; first > last when the ledger holds none.
func (b *Battery) DeficitSpan() (first, last int) { return b.firstDeficit, b.lastDeficit }

// walk is the closure-free twin of VisitDeficit that pricing and every
// feasibility check run on. It follows the deficit profile of consuming
// joules in slot ta, accumulates cost += unit[t]·outstanding(t) when a
// unit-price table is given (nil prices nothing), and stops at the first
// slot t where deficit(t)+outstanding(t) exceeds limit, returning that
// slot and sum; failSlot is -1 when the profile fits. unit, when given,
// holds the prices of slots ta, ta+1, … and reaches the walk's last slot.
//
// The float operations and their order are VisitDeficit's, with two
// shortcuts. A sunny cell's deficit is +0 and +0 + outstanding is
// outstanding, so the sum is only computed in a cell without solar. And
// the walk ends after the first slot past lastDeficit. From
// there on the ledger's deficit is zero, so the unit price is
// price(0) = +0 and cost + 0·outstanding == cost exactly; and
// outstanding only shrinks as later solar absorbs it, so if that slot
// fits under limit every later one does. The skipped slots can change
// neither result.
func (b *Battery) walk(ta int, joules float64, unit []float64, limit float64) (cost float64, failSlot int, failDeficit float64) {
	b.instr.countDeficitWalk()
	if joules <= 0 || ta < 0 || ta >= len(b.cell) {
		return 0, -1, 0
	}
	// Windows of equal length over [ta, walkEnd]: the loop indexes them
	// without bounds checks.
	cells := b.cell[ta : b.walkEnd(ta)+1]
	if unit != nil {
		unit = unit[:len(cells)]
	}
	remaining := joules
	for i, v := range cells {
		var sum float64
		if v > 0 {
			if v >= remaining {
				break
			}
			remaining -= v
			sum = remaining
		} else {
			sum = remaining - v // deficit + outstanding: −v + r is r − v exactly
		}
		if sum > limit {
			return cost, ta + i, sum
		}
		if unit != nil {
			cost += unit[i] * remaining
		}
	}
	return cost, -1, 0
}

// walkEnd is the last slot a walk from ta reads: the first slot past the
// deficit span, or ta when that lies behind it, within the horizon.
func (b *Battery) walkEnd(ta int) int {
	return min(max(b.lastDeficit+1, ta), len(b.cell)-1)
}

// Feasible reports whether consuming `joules` in slot ta keeps the
// battery within capacity (b_s(t) >= 0) at every slot, given the current
// committed state.
func (b *Battery) Feasible(ta int, joules float64) bool {
	if b.fits(joules) {
		b.instr.countDeficitWalk() // the walk this proof stands in for
		return true
	}
	_, failSlot, _ := b.walk(ta, joules, nil, b.limit())
	return failSlot < 0
}

// DepletionError is returned by Consume when the consumption would drive
// the battery below empty.
type DepletionError struct {
	Slot      int
	DeficitJ  float64
	CapacityJ float64
}

func (e *DepletionError) Error() string {
	return fmt.Sprintf("energy: deficit %.1f J exceeds capacity %.1f J at slot %d",
		e.DeficitJ, e.CapacityJ, e.Slot)
}

// checkConsume is the validation every consumption entry point shares:
// argument checks, then feasibility, reporting the first slot over
// capacity as a *DepletionError. apply is false for a
// zero consumption, which succeeds without touching the ledger.
func (b *Battery) checkConsume(ta int, joules float64) (apply bool, err error) {
	if joules < 0 || math.IsNaN(joules) {
		return false, fmt.Errorf("energy: invalid consumption %v", joules)
	}
	if joules == 0 {
		return false, nil
	}
	if ta < 0 || ta >= len(b.cell) {
		return false, fmt.Errorf("energy: slot %d outside horizon [0,%d)", ta, len(b.cell))
	}
	if !b.Feasible(ta, joules) {
		// Feasibility tolerates float dust above capacity; the error
		// names the first slot strictly above it.
		_, failSlot, failDeficit := b.walk(ta, joules, nil, b.capacityJ)
		return false, &DepletionError{Slot: failSlot, DeficitJ: failDeficit, CapacityJ: b.capacityJ}
	}
	b.instr.countConsume()
	return true, nil
}

// Consume commits an energy consumption of `joules` in slot ta,
// implementing lines 9–16 of Algorithm 1: solar input of slot ta (and of
// subsequent slots) is claimed first; whatever cannot be covered becomes
// battery deficit that persists until fully absorbed by later solar.
//
// The commit is atomic: if any slot would exceed capacity, the ledger is
// left untouched and a *DepletionError is returned.
func (b *Battery) Consume(ta int, joules float64) error { return b.consume(ta, joules, nil) }

// consume is the ledger's one mutation loop. With a log it first records
// the bounds and maximum it may move, then each cell before writing it.
//
// The float operations are those of a two-array ledger (solar and
// deficit apart) in their order. Where solar covers the rest, the cell
// keeps solar − remaining. Otherwise all of the slot's solar is claimed —
// solar − solar is +0, so no slot holds both — and the deficit it held
// (+0 when it held none) grows by what is posted. A cell without solar
// absorbs nothing, which leaves remaining as it was.
func (b *Battery) consume(ta int, joules float64, log *Undo) error {
	apply, err := b.checkConsume(ta, joules)
	if !apply {
		return err
	}
	if log != nil {
		log.ops = append(log.ops, undoOp{
			b: b, ta: ta, cells: len(log.cells),
			first: b.firstDeficit, last: b.lastDeficit, maxDeficit: b.maxDeficit,
		})
	}
	b.stamp++
	remaining := joules
	for t := ta; t < len(b.cell); t++ {
		v := b.cell[t]
		if log != nil {
			log.cells = append(log.cells, v)
		}
		d := deficitOf(v)
		if v > 0 {
			if remaining <= v {
				b.cell[t] = v - remaining
				return nil
			}
			remaining -= v
		}
		d += remaining
		b.cell[t] = -d
		if t < b.firstDeficit {
			b.firstDeficit = t
		}
		if t > b.lastDeficit {
			b.lastDeficit = t
		}
		if d > b.maxDeficit {
			b.maxDeficit = d
		}
	}
	return nil
}

// Undo is a log of ledger writes across any number of batteries, the
// energy half of a transaction's undo log. Every Consume made through it
// records the battery's deficit bounds and maximum, and for each slot it
// writes the slot's previous cell; Rollback
// replays the records newest-first, which restores every cell and bound
// bit for bit. The zero value is an empty log, and it keeps its buffers
// across Reset, so a warm log consumes and rolls back without
// allocating.
type Undo struct {
	ops   []undoOp
	cells []float64
}

// undoOp is one logged Consume: the battery, the first slot it wrote,
// where its cells start in Undo.cells, and its bounds before the call.
type undoOp struct {
	b           *Battery
	ta, cells   int
	first, last int
	maxDeficit  float64
}

// Consume is Battery.Consume with the writes recorded in the log. A
// consumption that fails (or is zero) writes and records nothing.
func (u *Undo) Consume(b *Battery, ta int, joules float64) error { return b.consume(ta, joules, u) }

// Len returns how many slot writes the log holds.
func (u *Undo) Len() int { return len(u.cells) }

// Reset empties the log, keeping its buffers.
func (u *Undo) Reset() { u.ops, u.cells = u.ops[:0], u.cells[:0] }

// Rollback restores every logged write, newest first, then empties the
// log. A restore is a mutation: each rolled-back consumption advances
// its battery's stamp, so a unit-price table filled since it was made
// goes stale.
func (u *Undo) Rollback() {
	end := len(u.cells)
	for i := len(u.ops) - 1; i >= 0; i-- {
		op := &u.ops[i]
		b := op.b
		copy(b.cell[op.ta:], u.cells[op.cells:end])
		b.firstDeficit, b.lastDeficit, b.maxDeficit = op.first, op.last, op.maxDeficit
		b.stamp++
		end = op.cells
	}
	u.Reset()
}

// TrialConsume checks whether Consume(ta, joules) would succeed, without
// mutating the ledger: Consume's validation and feasibility logic with
// the commit skipped. Errors (including *DepletionError contents) and
// instrument counts match Consume's exactly. No program path calls it:
// it is kept for the benchmark's energy.trial_consume_us probe.
func (b *Battery) TrialConsume(ta int, joules float64) error {
	_, err := b.checkConsume(ta, joules)
	return err
}

// CheckInvariants verifies what the pricing kernels' shortcuts rely on:
// no cell is NaN, no deficit is above capacity (beyond the float dust
// feasibility tolerates) or above maxDeficit, and the deficit bounds
// enclose every slot that holds one.
func (b *Battery) CheckInvariants() error {
	limit := b.limit()
	for t, v := range b.cell {
		d := deficitOf(v)
		switch {
		case math.IsNaN(v):
			return fmt.Errorf("energy: slot %d holds NaN", t)
		case d > b.maxDeficit:
			return fmt.Errorf("energy: deficit %v at slot %d exceeds the recorded maximum %v", d, t, b.maxDeficit)
		case d > limit:
			return fmt.Errorf("energy: deficit %v at slot %d outside [0, %v]", d, t, b.capacityJ)
		case d != 0 && (t < b.firstDeficit || t > b.lastDeficit):
			return fmt.Errorf("energy: deficit %v at slot %d lies outside the recorded span [%d, %d]",
				d, t, b.firstDeficit, b.lastDeficit)
		}
	}
	return nil
}
