package energy

import (
	"math"
	"math/rand"
	"testing"
)

// fromLane is one battery of a from-script with what a pricer keeps for
// it: the unit-price table under test, and — tracked here, not read from
// the table — the stamp it was last filled at and the lowest slot it has
// been asked for since it last went stale.
type fromLane struct {
	b      *Battery
	undo   Undo
	open   bool // consumptions go through undo since the last begin
	tab    UnitPrices
	filled bool
	stamp  uint64
	low    int
	widest int // the longest window the table has held
}

// fromTally counts the cases a from-script put FillUnitPrices and the
// kernels through.
type fromTally struct {
	stale, current, extended int // fills of a non-empty table, by kind
	pastSpan                 int // stale fills asked for a slot past the last deficit
	runs, walks              int // draws priced by the constant-run loop / by walk
	// Window moves: a current table asked for an earlier slot that refilled
	// a wider window in its array / in a larger one, and a stale refill
	// into a shorter window than the last that kept the array.
	widened, regrown, shorter int
	toEnd                     int // feasible walks that read the slot past the last deficit
}

// runFromScript interprets script as ledger operations on two batteries
// (consumptions, and begin / rollback of an undo log over them)
// interleaved with fills of their unit-price tables from arbitrary slots,
// and after every fill holds the tables to the whole-span oracle: a fresh
// table filled from slot 0 and priced by walk. An op byte picks the
// battery (top bit) and the operation (low three bits); operands follow,
// missing ones read as zero, so every byte string is a valid script.
// What the script exercised is added to tally.
func runFromScript(t testing.TB, script []byte, tally *fromTally) {
	t.Helper()
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		v := script[0]
		script = script[1:]
		return int(v)
	}
	var lanes [2]*fromLane
	for i := range lanes {
		solar := make([]float64, driverHorizon)
		for s := range solar {
			if s%16 < 10 { // sunlit two thirds of each orbit
				solar[s] = 30 + 10*math.Mod(float64(s+7*i)*0.618, 1)
			}
		}
		lanes[i] = &fromLane{b: mustBattery(t, 2000, solar)}
	}
	for step := 0; len(script) > 0; step++ {
		op := next()
		ln := lanes[op>>7]
		b := ln.b
		switch op & 7 {
		case 0, 1, 2:
			slot, hi, lo := next()%driverHorizon, next(), next()
			joules := 450 * float64(hi<<8|lo) / 65535
			if ln.open {
				_ = ln.undo.Consume(b, slot, joules) // infeasible draws are part of the mix
			} else {
				_ = b.Consume(slot, joules)
			}
		case 3:
			// Retired opcode, kept as a no-op so the others keep their
			// numbers and the seeded scripts their mix.
		case 4:
			// Begin: what the log held is committed.
			ln.undo.Reset()
			ln.open = true
		case 5:
			// Rollback to the last begin: a table filled since must go
			// stale, or the next check sees the abandoned prices.
			ln.undo.Rollback()
		default:
			from := next() % driverHorizon
			for _, l := range lanes {
				l.fill(from, tally)
			}
			checkFilledFrom(t, step, lanes, tally)
		}
	}
}

// fill brings the lane's table up to date from slot from and records
// which kind of fill that was.
func (l *fromLane) fill(from int, tally *fromTally) {
	stale := !l.filled || l.stamp != l.b.Stamp()
	switch _, last := l.b.DeficitSpan(); {
	case l.tab.unit == nil:
	case stale:
		tally.stale++
		if from > last {
			tally.pastSpan++
		}
	case from < l.low:
		tally.extended++
	default:
		tally.current++
	}
	extending := !stale && from < l.low
	if stale || from < l.low {
		l.low = from
	}
	l.filled, l.stamp = true, l.b.Stamp()
	n, c := len(l.tab.unit), cap(l.tab.unit)
	l.b.FillUnitPrices(&l.tab, from, testPrice)
	l.widest = max(l.widest, len(l.tab.unit))
	switch grew, kept := len(l.tab.unit) > n, cap(l.tab.unit) == c; {
	case extending && grew && kept && n > 0:
		tally.widened++
	case extending && !kept && n > 0:
		tally.regrown++
	case stale && kept && len(l.tab.unit) < n:
		tally.shorter++
	}
}

// checkFilledFrom requires of both lanes' tables, just filled, what the
// [from, last] invariant promises: a window over exactly [from, top] (top
// the first slot past the deficit span, within the horizon), +0 in it
// outside [from, last], the whole-span table's values inside, and
// PriceDeficit equal to walk over the whole-span table, bit for bit, at
// every slot the table answers for — the lowest one asked since it went
// stale and every later one.
func checkFilledFrom(t testing.TB, step int, lanes [2]*fromLane, tally *fromTally) {
	t.Helper()
	for i, l := range lanes {
		b := l.b
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		var whole UnitPrices
		b.FillUnitPrices(&whole, 0, testPrice)
		wholeUnit := wholeHorizon(&whole, driverHorizon)
		_, last := b.DeficitSpan()
		if l.tab.unit != nil { // nil while the battery never held a deficit
			top := min(last+1, driverHorizon-1)
			if l.tab.from != l.low || len(l.tab.unit) != max(top+1-l.low, 0) {
				t.Fatalf("step %d lane %d: window of %d slots from %d, want [%d, %d]", step, i, len(l.tab.unit), l.tab.from, l.low, top)
			}
			if widest, held := l.tab.Slots(); widest != l.widest || held > windowCap(l.widest, driverHorizon) {
				t.Fatalf("step %d lane %d: table holds %d slots, widest window %d, want at most %d for a widest window of %d",
					step, i, held, widest, windowCap(l.widest, driverHorizon), l.widest)
			}
		}
		for k, got := range l.tab.unit {
			tt := l.low + k
			want := wholeUnit[tt]
			if tt > last {
				want = 0
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d lane %d: unit[%d] = %v, want %v (filled from %d, last deficit %d)", step, i, tt, got, want, l.low, last)
			}
		}
		for ta := l.low; ta < driverHorizon; ta++ {
			for _, j := range driverDraws {
				wantCost, failSlot, _ := b.walk(ta, j, wholeUnit[ta:], b.limit())
				cost, ok := b.PriceDeficit(ta, j, &l.tab)
				if ok != (failSlot < 0) || (ok && math.Float64bits(cost) != math.Float64bits(wantCost)) {
					t.Fatalf("step %d lane %d: PriceDeficit(%d, %v) from slot %d = (%v, %v), whole-span walk (%v, fails at %d)",
						step, i, ta, j, l.low, cost, ok, wantCost, failSlot)
				}
				if constantRun(b, ta, j, &l.tab) {
					tally.runs++
				} else {
					tally.walks++
					if ok && last+1 < driverHorizon {
						b.VisitDeficit(ta, j, func(s int, _ float64) bool {
							if s == last+1 {
								tally.toEnd++
							}
							return s <= last
						})
					}
				}
			}
		}
	}
}

// constantRun restates the lane PriceDeficit prices as one run over the
// table rather than by walk, for the tally only: a draw that fits, from a
// slot inside the battery's deficit span and the table's window with no
// sunny slot at or after it.
func constantRun(b *Battery, ta int, joules float64, u *UnitPrices) bool {
	first, last := b.DeficitSpan()
	return u.unit != nil && ta >= max(first, u.from) && ta <= last && ta > u.lastSunny && b.fits(joules)
}

// fromScript is a seeded random from-script of n bytes. Uniform bytes
// make a quarter of the ops fills, from slots in no order: two fills
// with no mutation of that battery in between happen often, and half of
// those ask for an earlier slot.
func fromScript(seed int64, n int) []byte {
	script := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(script)
	return script
}

// TestFillFromSlotMatchesWholeSpan is the [from, last] invariant's
// property test: seeded from-scripts (Consume, begin and rollback on
// two batteries; fills from non-monotone slots, downward extensions at an
// unchanged stamp and slots past the last deficit among them) must leave
// every table indistinguishable, from the slot it answers for on, from
// one filled over the whole span.
func TestFillFromSlotMatchesWholeSpan(t *testing.T) {
	var tally fromTally
	for seed := int64(1); seed <= 12; seed++ {
		runFromScript(t, fromScript(seed, 900), &tally)
	}
	t.Logf("%+v", tally)
	if tally.stale == 0 || tally.current == 0 || tally.extended == 0 || tally.pastSpan == 0 ||
		tally.runs == 0 || tally.walks == 0 ||
		tally.widened == 0 || tally.regrown == 0 || tally.shorter == 0 || tally.toEnd == 0 {
		t.Fatalf("a case never occurred: %+v", tally)
	}
}

// Hand-made from-scripts for the window's moves, each checked against
// the whole-span table by runFromScript. Ops (see runFromScript): 0x00
// slot hi lo consumes on the first battery, 0x06 slot fills both tables
// from slot; a draw of 0xffff is 450 J, a dozen sunlit slots of deficit.
var windowScripts = []struct {
	name   string
	script []byte
	hits   func(fromTally) int
}{
	// One deficit, filled from inside it, then from further and further
	// down at the same stamp: the window is refilled wider, in its array
	// and beyond it.
	{
		"fill below base",
		[]byte{0x00, 20, 0xff, 0xff, 0x06, 30, 0x06, 26, 0x06, 0},
		func(k fromTally) int { return min(k.widened, k.regrown) },
	},
	// A table filled from slot 0 goes stale, and is refilled from past
	// most of the span: a shorter window in the same array.
	{
		"stale refill, shorter window",
		[]byte{0x00, 5, 0xff, 0xff, 0x06, 0, 0x00, 6, 0x10, 0x00, 0x06, 15},
		func(k fromTally) int { return k.shorter },
	},
	// Draws from before the span whose deficit outlasts it: the walk's
	// last slot is the one past the last deficit, the window's top.
	{
		"walk to lastDeficit+1",
		[]byte{0x00, 20, 0xff, 0xff, 0x06, 10},
		func(k fromTally) int { return k.toEnd },
	},
}

// TestWindowScriptsCoverTheirCase runs the hand-made window scripts and
// requires each to reach the case it is named for.
func TestWindowScriptsCoverTheirCase(t *testing.T) {
	for _, w := range windowScripts {
		var tally fromTally
		runFromScript(t, w.script, &tally)
		if w.hits(tally) == 0 {
			t.Errorf("%s: the case never occurred: %+v", w.name, tally)
		}
	}
}

// FuzzUnitPricesFrom feeds runFromScript arbitrary scripts. The corpus
// starts from the heads of the property test's: short enough that the
// fuzzer runs hundreds of inputs a second and minimises a find quickly.
func FuzzUnitPricesFrom(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(fromScript(seed, 150))
	}
	for _, w := range windowScripts {
		f.Add(w.script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		runFromScript(t, script, new(fromTally))
	})
}

// TestFillFromBeforeSpanIsTheWholeSpanRefill is the bypass case: asked
// for a slot at or before the first deficit, a stale table makes exactly
// the price calls the whole-span refill made — one per span slot that
// holds a deficit — and a current one makes none.
func TestFillFromBeforeSpanIsTheWholeSpanRefill(t *testing.T) {
	calls := 0
	counted := func(u float64) float64 { calls++; return testPrice(u) }
	refills := 0
	for seed := int64(1); seed <= 4; seed++ {
		d := newLedgerDriver(t, seed)
		var tab UnitPrices
		for step := 0; step < 120; step++ {
			if !d.step() {
				continue
			}
			first, last := d.b.DeficitSpan()
			if first > last {
				continue
			}
			want := 0
			for tt := first; tt <= last; tt++ {
				if d.b.DeficitAt(tt) != 0 {
					want++
				}
			}
			calls = 0
			d.b.FillUnitPrices(&tab, d.rng.Intn(first+1), counted)
			if calls != want {
				t.Fatalf("seed %d step %d: refill from before slot %d made %d price calls, the span [%d, %d] holds %d deficits",
					seed, step, first, calls, first, last, want)
			}
			refills++
			d.b.FillUnitPrices(&tab, first, counted)
			if calls != want {
				t.Fatalf("seed %d step %d: filling a current table made %d price calls", seed, step, calls-want)
			}
		}
	}
	if refills == 0 {
		t.Fatal("no refill occurred")
	}
}

// TestPriceBeforeFilledSlotPanics: a table answers from the slot it was
// filled from; asking it about an earlier one is a caller bug that must
// not pass as a price — also when the first fill lay past the deficit
// span, which leaves a live table with an empty window.
func TestPriceBeforeFilledSlotPanics(t *testing.T) {
	for _, solar := range []float64{0, 400} { // deficit to the horizon / in slot 3 only
		b := mustBattery(t, 5000, constSolar(40, solar))
		if err := b.Consume(3, 500); err != nil {
			t.Fatal(err)
		}
		var tab UnitPrices
		b.FillUnitPrices(&tab, 10, testPrice)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("solar %v: pricing slot 5 against a table filled from slot 10 did not panic", solar)
				}
			}()
			b.PriceDeficit(5, 100, &tab)
		}()
	}
}

// TestCheckInvariantsCatchesStaleMaximum: the feasibility shortcut is
// only sound while maxDeficit bounds every slot.
func TestCheckInvariantsCatchesStaleMaximum(t *testing.T) {
	b := mustBattery(t, 1000, constSolar(10, 0))
	if err := b.Consume(4, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	b.maxDeficit = b.DeficitAt(4) / 2
	if err := b.CheckInvariants(); err == nil {
		t.Fatal("a deficit above maxDeficit went unreported")
	}
}

// loadedBattery is a synthetic battery in the state the paper-scale run
// leaves them in: one deficit span of `span` slots whose solar is all
// claimed, so a draw at slot 0 walks exactly the span.
func loadedBattery(tb testing.TB, span int) (*Battery, *UnitPrices) {
	tb.Helper()
	b, err := NewBattery(117000, constSolar(span+1, 1200))
	if err != nil {
		tb.Fatal(err)
	}
	if err := b.Consume(0, 1200*float64(span)+600); err != nil {
		tb.Fatal(err)
	}
	tab := new(UnitPrices)
	b.FillUnitPrices(tab, 0, testPrice)
	if first, last := b.DeficitSpan(); first != 0 || last != span-1 || tab.lastSunny >= 0 {
		tb.Fatalf("synthetic battery: span [%d, %d], sunny slot %d", first, last, tab.lastSunny)
	}
	return b, tab
}

var benchSink float64

const benchSpan = 64 // the mean window of a paper-scale walk is 66 slots

// The two benchmarks price the same relay-sized draw over the same
// 64-slot window and report ns per slot walked: the reference walk (three
// arrays, feasibility test per slot) and the constant-run kernel (one
// array).
func BenchmarkPriceDeficitWalk(b *testing.B) {
	bat, tab := loadedBattery(b, benchSpan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cost, _, _ := bat.walk(0, 70, tab.at(0), bat.limit())
		benchSink += cost
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchSpan, "ns/slot")
}

func BenchmarkPriceDeficitRuns(b *testing.B) {
	bat, tab := loadedBattery(b, benchSpan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cost, _ := bat.PriceDeficit(0, 70, tab)
		benchSink += cost
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchSpan, "ns/slot")
}
