package energy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refLedger is the two-array ledger the signed cell replaced, kept as a
// reference model: unclaimed solar and deficit in arrays of their own,
// consumption through math.Min, and an undo log of (solar, deficit)
// pairs. Every float operation is the one the ledger made before it kept
// one cell per slot.
type refLedger struct {
	capacityJ      float64
	solarRemaining []float64
	deficit        []float64
	first, last    int
	maxDeficit     float64
	stamp          uint64
}

func newRefLedger(capacityJ float64, solar []float64) *refLedger {
	return &refLedger{
		capacityJ:      capacityJ,
		solarRemaining: append([]float64(nil), solar...),
		deficit:        make([]float64, len(solar)),
		first:          len(solar),
		last:           -1,
	}
}

func (r *refLedger) limit() float64 { return r.capacityJ * (1 + 1e-12) }

// walk is the two-array pricing and feasibility walk over a horizon-long
// unit table (nil prices nothing).
func (r *refLedger) walk(ta int, joules float64, unit []float64, limit float64) (cost float64, failSlot int, failDeficit float64) {
	if joules <= 0 || ta < 0 || ta >= len(r.deficit) {
		return 0, -1, 0
	}
	remaining := joules
	for t := ta; t < len(r.deficit); t++ {
		if s := r.solarRemaining[t]; s < remaining {
			remaining -= s
		} else {
			break
		}
		if sum := r.deficit[t] + remaining; sum > limit {
			return cost, t, sum
		}
		if unit != nil {
			cost += unit[t] * remaining
		}
	}
	return cost, -1, 0
}

// visit is VisitDeficit over the two arrays, collecting every step.
func (r *refLedger) visit(ta int, joules float64) (steps []float64) {
	if joules <= 0 || ta < 0 || ta >= len(r.deficit) {
		return nil
	}
	remaining := joules
	for t := ta; t < len(r.deficit); t++ {
		if s := r.solarRemaining[t]; s < remaining {
			remaining -= s
		} else {
			return steps
		}
		steps = append(steps, float64(t), remaining)
	}
	return steps
}

// refUndo is the two-array undo log: per logged consumption the bounds and
// maximum, per slot written its (solar, deficit) pair.
type refUndo struct {
	ops []struct {
		ta, cells, first, last int
		maxDeficit             float64
	}
	cells [][2]float64
}

func (r *refLedger) consume(ta int, joules float64, log *refUndo) error {
	if joules < 0 || math.IsNaN(joules) {
		return errors.New("invalid consumption")
	}
	if joules == 0 {
		return nil
	}
	if ta < 0 || ta >= len(r.deficit) {
		return errors.New("slot outside horizon")
	}
	if _, failSlot, _ := r.walk(ta, joules, nil, r.limit()); failSlot >= 0 {
		_, slot, deficit := r.walk(ta, joules, nil, r.capacityJ)
		return &DepletionError{Slot: slot, DeficitJ: deficit, CapacityJ: r.capacityJ}
	}
	if log != nil {
		log.ops = append(log.ops, struct {
			ta, cells, first, last int
			maxDeficit             float64
		}{ta, len(log.cells), r.first, r.last, r.maxDeficit})
	}
	r.stamp++
	remaining := joules
	for t := ta; t < len(r.deficit); t++ {
		if log != nil {
			log.cells = append(log.cells, [2]float64{r.solarRemaining[t], r.deficit[t]})
		}
		absorb := math.Min(remaining, r.solarRemaining[t])
		r.solarRemaining[t] -= absorb
		remaining -= absorb
		if remaining <= 0 {
			return nil
		}
		r.deficit[t] += remaining
		r.first, r.last = min(r.first, t), max(r.last, t)
		if r.deficit[t] > r.maxDeficit {
			r.maxDeficit = r.deficit[t]
		}
	}
	return nil
}

func (r *refLedger) rollback(log *refUndo) {
	end := len(log.cells)
	for i := len(log.ops) - 1; i >= 0; i-- {
		op := log.ops[i]
		for j, c := range log.cells[op.cells:end] {
			r.solarRemaining[op.ta+j], r.deficit[op.ta+j] = c[0], c[1]
		}
		r.first, r.last, r.maxDeficit = op.first, op.last, op.maxDeficit
		r.stamp++
		end = op.cells
	}
	log.ops, log.cells = log.ops[:0], log.cells[:0]
}

// units is the reference's horizon-long unit-price table.
func (r *refLedger) units() []float64 {
	unit := make([]float64, len(r.deficit))
	for t, d := range r.deficit {
		unit[t] = testPrice(min(max(d/r.capacityJ, 0), 1))
	}
	return unit
}

// sameAsRef reports how b differs from the reference, bit for bit: every
// slot's deficit and unclaimed solar, the bounds, the maximum and the
// stamp.
func sameAsRef(t *testing.T, what string, b *Battery, r *refLedger) {
	t.Helper()
	for s := range r.deficit {
		if math.Float64bits(b.DeficitAt(s)) != math.Float64bits(r.deficit[s]) ||
			math.Float64bits(b.SolarRemainingAt(s)) != math.Float64bits(r.solarRemaining[s]) {
			t.Fatalf("%s: slot %d deficit %v solar %v, reference %v %v", what, s, b.DeficitAt(s), b.SolarRemainingAt(s), r.deficit[s], r.solarRemaining[s])
		}
	}
	if first, last := b.DeficitSpan(); first != r.first || last != r.last ||
		math.Float64bits(b.maxDeficit) != math.Float64bits(r.maxDeficit) || b.Stamp() != r.stamp {
		t.Fatalf("%s: span [%d, %d] max %v stamp %d, reference [%d, %d] %v %d",
			what, first, last, b.maxDeficit, b.Stamp(), r.first, r.last, r.maxDeficit, r.stamp)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestSignedCellMatchesTwoArrayLedger drives the signed-cell ledger and the
// two-array reference through the same seeded random Consume /
// Undo.Consume / Rollback / commit sequences.
// After every operation the two must agree bit for bit on every slot's
// deficit and solar, the bounds, the maximum and the stamp; errors must
// match; and from a random slot on, PriceDeficit against a filled table
// and VisitDeficit must equal the reference's walk over its
// horizon-long table.
func TestSignedCellMatchesTwoArrayLedger(t *testing.T) {
	var rejected, rolledBack, priced, infeasible int
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		solar := make([]float64, driverHorizon)
		for s := range solar {
			if s%16 < 10 {
				solar[s] = 30 + 10*rng.Float64()
			}
		}
		b, r := mustBattery(t, 2000, solar), newRefLedger(2000, solar)
		var undo Undo
		var refLog refUndo
		var tab UnitPrices
		open := false
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				ta, joules := rng.Intn(driverHorizon), 700*rng.Float64()
				var err, refErr error
				if open {
					err, refErr = undo.Consume(b, ta, joules), r.consume(ta, joules, &refLog)
				} else {
					err, refErr = b.Consume(ta, joules), r.consume(ta, joules, nil)
				}
				var de, refDe *DepletionError
				if (err == nil) != (refErr == nil) || errors.As(err, &de) != errors.As(refErr, &refDe) ||
					(de != nil && (de.Slot != refDe.Slot || math.Float64bits(de.DeficitJ) != math.Float64bits(refDe.DeficitJ))) {
					t.Fatalf("seed %d step %d: Consume(%d, %v) = %v, reference %v", seed, step, ta, joules, err, refErr)
				}
				if err != nil {
					rejected++
				}
			case op < 8:
				undo.Reset()
				refLog.ops, refLog.cells = refLog.ops[:0], refLog.cells[:0]
				open = true
			default:
				if undo.Len() != len(refLog.cells) {
					t.Fatalf("seed %d step %d: log holds %d writes, reference %d", seed, step, undo.Len(), len(refLog.cells))
				}
				if undo.Len() > 0 {
					rolledBack++
				}
				undo.Rollback()
				r.rollback(&refLog)
			}
			what := fmt.Sprintf("seed %d step %d", seed, step)
			sameAsRef(t, what, b, r)

			from := rng.Intn(driverHorizon)
			b.FillUnitPrices(&tab, from, testPrice)
			unit := r.units()
			for ta := from; ta < driverHorizon; ta++ {
				for _, j := range driverDraws {
					wantCost, failSlot, _ := r.walk(ta, j, unit, r.limit())
					cost, ok := b.PriceDeficit(ta, j, &tab)
					if ok != (failSlot < 0) || (ok && math.Float64bits(cost) != math.Float64bits(wantCost)) {
						t.Fatalf("%s: PriceDeficit(%d, %v) from %d = (%v, %v), reference (%v, fails at %d)",
							what, ta, j, from, cost, ok, wantCost, failSlot)
					}
					priced++
					if !ok {
						infeasible++
					}
					var steps []float64
					b.VisitDeficit(ta, j, func(s int, out float64) bool {
						steps = append(steps, float64(s), out)
						return true
					})
					want := r.visit(ta, j)
					if len(steps) != len(want) {
						t.Fatalf("%s: VisitDeficit(%d, %v) visits %d slots, reference %d", what, ta, j, len(steps)/2, len(want)/2)
					}
					for k := range want {
						if math.Float64bits(steps[k]) != math.Float64bits(want[k]) {
							t.Fatalf("%s: VisitDeficit(%d, %v) step %d = %v, reference %v", what, ta, j, k/2, steps[k], want[k])
						}
					}
				}
			}
		}
	}
	t.Logf("%d rejected draws, %d rollbacks, %d prices (%d infeasible)", rejected, rolledBack, priced, infeasible)
	if rolledBack == 0 || priced == 0 || rejected == 0 || infeasible == 0 {
		t.Fatal("a case never occurred")
	}
}
