// Package energy implements the satellite energy model of §III-C of the
// paper: solar panels harvest a per-slot energy input, a battery stores
// up to a fixed capacity, and serving a request in slot T_a creates a
// *battery deficit* that persists into future slots until replenished by
// leftover solar input (Eqs. (2)–(5)).
//
// The ledger tracks, per satellite:
//
//   - solarRemaining[t] — α_s(t), solar energy still unclaimed in slot t
//     after all committed reservations, and
//   - deficit[t] — the total outstanding battery deficit at the end of
//     slot t across all committed reservations (ϖ_s − b_s(t)).
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
	capacityJ      float64
	solarRemaining []float64
	deficit        []float64
	// clamp selects baseline-mode accounting: the battery saturates at
	// empty instead of rejecting infeasible consumption. CEAR batteries
	// run with clamp=false and enforce b_s(T) >= 0 (constraint (7c)).
	clamp bool
	instr *Instruments

	// firstDeficit and lastDeficit enclose every slot with a non-zero
	// deficit (first > last while there is none). Consume widens them, an
	// Undo rollback restores them. The pricing walk uses lastDeficit to
	// stop early, a unit-price table (FillUnitPrices) is non-zero only
	// inside the span.
	firstDeficit int
	lastDeficit  int
	// maxDeficit is at least every deficit[t]: Consume raises it, an Undo
	// rollback restores it. Rounding is monotone, so
	// maxDeficit+joules <= limit proves that no slot of a joules-sized
	// consumption breaches limit without reading deficit.
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
func NewBattery(capacityJ float64, solarInputJ []float64, clamp bool) (*Battery, error) {
	if capacityJ <= 0 {
		return nil, fmt.Errorf("energy: capacity must be positive, got %v", capacityJ)
	}
	if len(solarInputJ) == 0 {
		return nil, fmt.Errorf("energy: empty solar input vector")
	}
	solar := make([]float64, len(solarInputJ))
	for t, s := range solarInputJ {
		if s < 0 || math.IsNaN(s) {
			return nil, fmt.Errorf("energy: invalid solar input %v at slot %d", s, t)
		}
		solar[t] = s
	}
	return &Battery{
		capacityJ:      capacityJ,
		solarRemaining: solar,
		deficit:        make([]float64, len(solarInputJ)),
		clamp:          clamp,
		firstDeficit:   len(solarInputJ),
		lastDeficit:    -1,
	}, nil
}

// NewFleet builds numSats ledgers over horizon slots for satellites with
// the given capacity, whose panels harvest harvestJ in every slot they
// are sunlit. sunlit(t) returns slot t's flags indexed by satellite.
// Every ledger's two arrays are carved from one backing array, filled
// straight from the flags: no per-battery input vector is built. The
// solar arrays come first, then the deficit arrays, so a sweep of one
// slot across the fleet (DepletedSatCount, SumDeficitJ) steps through
// memory a horizon apart, not two: a stride of 2 × 384 × 8 B maps every
// battery onto two sets of a 4 KiB-way L1 cache.
func NewFleet(numSats, horizon int, capacityJ, harvestJ float64, clamp bool, sunlit func(t int) []bool) ([]*Battery, error) {
	switch {
	case capacityJ <= 0:
		return nil, fmt.Errorf("energy: capacity must be positive, got %v", capacityJ)
	case horizon <= 0:
		return nil, fmt.Errorf("energy: horizon must be positive, got %d", horizon)
	case harvestJ < 0 || math.IsNaN(harvestJ):
		return nil, fmt.Errorf("energy: invalid solar input %v", harvestJ)
	}
	ledgers := make([]float64, 2*numSats*horizon)
	bats := make([]Battery, numSats)
	fleet := make([]*Battery, numSats)
	solar, deficit := ledgers[:numSats*horizon], ledgers[numSats*horizon:]
	for sat := range fleet {
		lo, hi := sat*horizon, (sat+1)*horizon
		bats[sat] = Battery{
			capacityJ:      capacityJ,
			solarRemaining: solar[lo:hi:hi],
			deficit:        deficit[lo:hi:hi],
			clamp:          clamp,
			firstDeficit:   horizon,
			lastDeficit:    -1,
		}
		fleet[sat] = &bats[sat]
	}
	for t := 0; t < horizon; t++ {
		for sat, lit := range sunlit(t)[:numSats] {
			if lit {
				fleet[sat].solarRemaining[t] = harvestJ
			}
		}
	}
	return fleet, nil
}

// Instrument attaches (or with nil, detaches) the counters this ledger
// advances. Plain field write: attach before the run starts. Clones
// inherit the handle, so trial ledgers count into the same registry.
func (b *Battery) Instrument(in *Instruments) { b.instr = in }

// Horizon returns the number of slots the ledger covers.
func (b *Battery) Horizon() int { return len(b.deficit) }

// CapacityJ returns the battery capacity ϖ_s.
func (b *Battery) CapacityJ() float64 { return b.capacityJ }

// DeficitAt returns the total outstanding deficit ϖ_s − b_s(t) at the end
// of slot t. Out-of-range slots report zero.
func (b *Battery) DeficitAt(t int) float64 {
	if t < 0 || t >= len(b.deficit) {
		return 0
	}
	return b.deficit[t]
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
	if t < 0 || t >= len(b.deficit) {
		return 0
	}
	u := b.deficit[t] / b.capacityJ
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
	if t < 0 || t >= len(b.solarRemaining) {
		return 0
	}
	return b.solarRemaining[t]
}

// VisitDeficit walks, without mutating the ledger, the deficit profile
// Ω̄(ta, t) that consuming `joules` in slot ta would add: fn is invoked
// for every slot t >= ta while the outstanding deficit is positive, with
// the deficit value that would persist at the end of slot t. Returning
// false from fn stops the walk early.
//
// This is the primitive behind both CEAR's energy pricing (Eq. (12)'s
// second term sums price(t)·Ω̄(ta,t) over the deficit's lifetime) and
// feasibility checks.
func (b *Battery) VisitDeficit(ta int, joules float64, fn func(t int, outstanding float64) bool) {
	b.instr.countDeficitWalk()
	if joules <= 0 || ta < 0 || ta >= len(b.deficit) {
		return
	}
	remaining := joules
	for t := ta; t < len(b.deficit); t++ {
		if solar := b.solarRemaining[t]; solar < remaining {
			remaining -= solar
		} else {
			return
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
// slot t where deficit[t]+outstanding(t) exceeds limit, returning that
// slot and sum; failSlot is -1 when the profile fits.
//
// The float operations and their order are VisitDeficit's, with one
// shortcut: the walk ends after the first slot past lastDeficit. From
// there on the ledger's deficit is zero, so the unit price is
// price(0) = +0 and cost + 0·outstanding == cost exactly; and
// outstanding only shrinks as later solar absorbs it, so if that slot
// fits under limit every later one does. The skipped slots can change
// neither result.
func (b *Battery) walk(ta int, joules float64, unit []float64, limit float64) (cost float64, failSlot int, failDeficit float64) {
	b.instr.countDeficitWalk()
	if joules <= 0 || ta < 0 || ta >= len(b.deficit) {
		return 0, -1, 0
	}
	end := b.lastDeficit + 1
	if end < ta {
		end = ta
	}
	if end >= len(b.deficit) {
		end = len(b.deficit) - 1
	}
	// Windows of equal length over [ta, end]: the loop indexes them
	// without bounds checks.
	deficit := b.deficit[ta : end+1]
	solar := b.solarRemaining[ta:][:len(deficit)]
	if unit != nil {
		unit = unit[ta:][:len(deficit)]
	}
	remaining := joules
	for i, d := range deficit {
		if s := solar[i]; s < remaining {
			remaining -= s
		} else {
			break
		}
		if sum := d + remaining; sum > limit {
			return cost, ta + i, sum
		}
		if unit != nil {
			cost += unit[i] * remaining
		}
	}
	return cost, -1, 0
}

// Feasible reports whether consuming `joules` in slot ta keeps the
// battery within capacity (b_s(t) >= 0) at every slot, given the current
// committed state. Always true in clamp mode.
func (b *Battery) Feasible(ta int, joules float64) bool {
	if b.clamp {
		return true
	}
	if b.fits(joules) {
		b.instr.countDeficitWalk() // the walk this proof stands in for
		return true
	}
	_, failSlot, _ := b.walk(ta, joules, nil, b.limit())
	return failSlot < 0
}

// DepletionError is returned by Consume when a non-clamping battery
// would be driven below empty.
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
// argument checks, then — in strict mode — feasibility, reporting the
// first slot over capacity as a *DepletionError. apply is false for a
// zero consumption, which succeeds without touching the ledger.
func (b *Battery) checkConsume(ta int, joules float64) (apply bool, err error) {
	if joules < 0 || math.IsNaN(joules) {
		return false, fmt.Errorf("energy: invalid consumption %v", joules)
	}
	if joules == 0 {
		return false, nil
	}
	if ta < 0 || ta >= len(b.deficit) {
		return false, fmt.Errorf("energy: slot %d outside horizon [0,%d)", ta, len(b.deficit))
	}
	if !b.clamp && !b.Feasible(ta, joules) {
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
// In strict mode (clamp=false) the commit is atomic: if any slot would
// exceed capacity, the ledger is left untouched and a *DepletionError is
// returned. In clamp mode the posted deficit saturates at capacity (the
// battery pegs at empty) and the call always succeeds.
func (b *Battery) Consume(ta int, joules float64) error { return b.consume(ta, joules, nil) }

// consume is the ledger's one mutation loop. With a log it first records
// the bounds and maximum it may move, then each slot's unclaimed solar and
// deficit before writing them.
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
	for t := ta; t < len(b.deficit); t++ {
		if log != nil {
			log.cells = append(log.cells, undoCell{solar: b.solarRemaining[t], deficit: b.deficit[t]})
		}
		absorb := math.Min(remaining, b.solarRemaining[t])
		b.solarRemaining[t] -= absorb
		remaining -= absorb
		if remaining <= 0 {
			return nil
		}
		post := remaining
		if b.clamp {
			// The battery cannot discharge below empty: cap both the
			// posted deficit and the amount carried forward.
			if post > b.capacityJ {
				post = b.capacityJ
				remaining = b.capacityJ
			}
			if b.deficit[t]+post > b.capacityJ {
				post = b.capacityJ - b.deficit[t]
			}
		}
		b.deficit[t] += post
		if t < b.firstDeficit {
			b.firstDeficit = t
		}
		if t > b.lastDeficit {
			b.lastDeficit = t
		}
		if b.deficit[t] > b.maxDeficit {
			b.maxDeficit = b.deficit[t]
		}
	}
	return nil
}

// Undo is a log of ledger writes across any number of batteries, the
// energy half of a transaction's undo log. Every Consume made through it
// records the battery's deficit bounds and maximum, and for each slot it
// writes the slot's previous unclaimed solar and deficit; Rollback
// replays the records newest-first, which restores every cell and bound
// bit for bit. The zero value is an empty log, and it keeps its buffers
// across Reset, so a warm log consumes and rolls back without
// allocating.
type Undo struct {
	ops   []undoOp
	cells []undoCell
}

// undoOp is one logged Consume: the battery, the first slot it wrote,
// where its cells start in Undo.cells, and its bounds before the call.
type undoOp struct {
	b           *Battery
	ta, cells   int
	first, last int
	maxDeficit  float64
}

// undoCell is one slot's ledger before a logged Consume wrote it.
type undoCell struct{ solar, deficit float64 }

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
		for j, c := range u.cells[op.cells:end] {
			b.solarRemaining[op.ta+j] = c.solar
			b.deficit[op.ta+j] = c.deficit
		}
		b.firstDeficit, b.lastDeficit, b.maxDeficit = op.first, op.last, op.maxDeficit
		b.stamp++
		end = op.cells
	}
	u.Reset()
}

// Clone returns an independent deep copy of the ledger. CEAR uses clones
// to trial-apply a candidate reservation plan (whose slots interact
// through this very ledger) before committing it.
func (b *Battery) Clone() *Battery {
	c := *b
	c.solarRemaining = append([]float64(nil), b.solarRemaining...)
	c.deficit = append([]float64(nil), b.deficit...)
	return &c
}

// TrialConsume checks whether Consume(ta, joules) would succeed, without
// mutating the ledger: Consume's validation and feasibility logic with
// the commit skipped. Errors (including *DepletionError contents) and
// instrument counts match Consume's exactly, so trialling a single
// consumption this way is equivalent to applying it on a throwaway
// Clone — minus the clone.
func (b *Battery) TrialConsume(ta int, joules float64) error {
	_, err := b.checkConsume(ta, joules)
	return err
}

// CheckInvariants verifies what the pricing kernels' shortcuts rely on:
// no slot holds a negative deficit or unclaimed solar, none is above
// capacity (beyond the float dust feasibility tolerates) or above
// maxDeficit, and the deficit bounds enclose every non-zero slot.
func (b *Battery) CheckInvariants() error {
	limit := b.limit()
	for t, d := range b.deficit {
		switch {
		case d > b.maxDeficit:
			return fmt.Errorf("energy: deficit %v at slot %d exceeds the recorded maximum %v", d, t, b.maxDeficit)
		case d < 0 || d > limit || math.IsNaN(d):
			return fmt.Errorf("energy: deficit %v at slot %d outside [0, %v]", d, t, b.capacityJ)
		case b.solarRemaining[t] < 0 || math.IsNaN(b.solarRemaining[t]):
			return fmt.Errorf("energy: unclaimed solar %v at slot %d is negative", b.solarRemaining[t], t)
		case d != 0 && (t < b.firstDeficit || t > b.lastDeficit):
			return fmt.Errorf("energy: deficit %v at slot %d lies outside the recorded span [%d, %d]",
				d, t, b.firstDeficit, b.lastDeficit)
		}
	}
	return nil
}
