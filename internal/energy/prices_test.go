package energy

import (
	"math"
	"math/rand"
	"testing"

	"spacebooking/internal/obs"
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
	runs, walks, pairs       int // single lanes priced by the run loop / by walk, pairs formed
	// Window moves: an extension that shifted the window up in its array /
	// moved it to a larger one, and a stale refill into a shorter window
	// than the last that kept the array.
	shifted, regrown, shorter int
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
		lanes[i] = &fromLane{b: mustBattery(t, 2000, solar, false)}
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
		tally.shifted++
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
// PriceDeficit and PriceDeficitPair equal to walk over the whole-span
// table, bit for bit, at every slot the table answers for — the lowest one
// asked since it went stale and every later one.
func checkFilledFrom(t testing.TB, step int, lanes [2]*fromLane, tally *fromTally) {
	t.Helper()
	var whole [2]UnitPrices
	var wholeUnit [2][]float64
	for i, l := range lanes {
		b := l.b
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		b.FillUnitPrices(&whole[i], 0, testPrice)
		wholeUnit[i] = wholeHorizon(&whole[i], driverHorizon)
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
			want := wholeUnit[i][tt]
			if tt > last {
				want = 0
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d lane %d: unit[%d] = %v, want %v (filled from %d, last deficit %d)", step, i, tt, got, want, l.low, last)
			}
		}
		for ta := l.low; ta < driverHorizon; ta++ {
			for _, j := range driverDraws {
				wantCost, failSlot, _ := b.walk(ta, j, wholeUnit[i][ta:], b.limit())
				cost, ok := b.PriceDeficit(ta, j, &l.tab)
				if ok != (failSlot < 0) || (ok && math.Float64bits(cost) != math.Float64bits(wantCost)) {
					t.Fatalf("step %d lane %d: PriceDeficit(%d, %v) from slot %d = (%v, %v), whole-span walk (%v, fails at %d)",
						step, i, ta, j, l.low, cost, ok, wantCost, failSlot)
				}
				if _, isRun := b.constantRun(ta, j, &l.tab); isRun {
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
	l0, l1 := lanes[0], lanes[1]
	for ta := max(l0.low, l1.low); ta < driverHorizon; ta++ {
		for _, j0 := range driverDraws {
			for _, j1 := range driverDraws {
				c0, c1, ok := PriceDeficitPair(ta, l0.b, j0, &l0.tab, l1.b, j1, &l1.tab)
				if _, _, want := PriceDeficitPair(ta, l0.b, j0, &whole[0], l1.b, j1, &whole[1]); ok != want {
					t.Fatalf("step %d: pair(%d, %v, %v) formed = %v, over whole-span tables %v", step, ta, j0, j1, ok, want)
				}
				if !ok {
					continue
				}
				tally.pairs++
				want0, _, _ := l0.b.walk(ta, j0, wholeUnit[0][ta:], l0.b.limit())
				want1, _, _ := l1.b.walk(ta, j1, wholeUnit[1][ta:], l1.b.limit())
				if math.Float64bits(c0) != math.Float64bits(want0) || math.Float64bits(c1) != math.Float64bits(want1) {
					t.Fatalf("step %d: pair(%d, %v, %v) = (%v, %v), whole-span walks (%v, %v)", step, ta, j0, j1, c0, c1, want0, want1)
				}
			}
		}
	}
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
		tally.runs == 0 || tally.walks == 0 || tally.pairs == 0 ||
		tally.shifted == 0 || tally.regrown == 0 || tally.shorter == 0 || tally.toEnd == 0 {
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
	// down: the window grows below its base, in its array and beyond it.
	{
		"extend below base",
		[]byte{0x00, 20, 0xff, 0xff, 0x06, 30, 0x06, 26, 0x06, 0},
		func(k fromTally) int { return min(k.shifted, k.regrown) },
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
// not pass as a price.
func TestPriceBeforeFilledSlotPanics(t *testing.T) {
	b := mustBattery(t, 5000, constSolar(40, 0), false)
	if err := b.Consume(3, 500); err != nil {
		t.Fatal(err)
	}
	var tab UnitPrices
	b.FillUnitPrices(&tab, 10, testPrice)
	defer func() {
		if recover() == nil {
			t.Fatal("pricing slot 5 against a table filled from slot 10 did not panic")
		}
	}()
	b.PriceDeficit(5, 100, &tab)
}

// TestPairedKernelMatchesVisitDeficit drives two batteries through
// independent random sequences and, after every step, prices every
// (slot, draw, draw) combination through PriceDeficitPair: whenever the
// pair forms, each lane must equal its own VisitDeficit reference bit for
// bit and be feasible. Two batteries of different history give lanes of
// unequal length.
func TestPairedKernelMatchesVisitDeficit(t *testing.T) {
	paired, refused, unequal := 0, 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		d1, d2 := newLedgerDriver(t, seed), newLedgerDriver(t, seed+100)
		var tab1, tab2 UnitPrices
		for step := 0; step < 100; step++ {
			d1.step()
			d2.step()
			b1, b2 := d1.b, d2.b
			b1.FillUnitPrices(&tab1, 0, testPrice)
			b2.FillUnitPrices(&tab2, 0, testPrice)
			for ta := 0; ta < driverHorizon; ta++ {
				for _, j1 := range driverDraws {
					for _, j2 := range driverDraws {
						c1, c2, ok := PriceDeficitPair(ta, b1, j1, &tab1, b2, j2, &tab2)
						if !ok {
							refused++
							continue
						}
						paired++
						if tab1.last != tab2.last {
							unequal++
						}
						want1, fail1, _ := referenceWalk(b1, ta, j1, b1.limit())
						want2, fail2, _ := referenceWalk(b2, ta, j2, b2.limit())
						if fail1 >= 0 || fail2 >= 0 {
							t.Fatalf("seed %d step %d: pair formed at slot %d for draws %v, %v, reference fails at %d, %d",
								seed, step, ta, j1, j2, fail1, fail2)
						}
						if math.Float64bits(c1) != math.Float64bits(want1) || math.Float64bits(c2) != math.Float64bits(want2) {
							t.Fatalf("seed %d step %d: pair(%d, %v, %v) = (%v, %v), reference (%v, %v)",
								seed, step, ta, j1, j2, c1, c2, want1, want2)
						}
					}
				}
			}
		}
	}
	t.Logf("%d pairs formed (%d of unequal length), %d refused", paired, unequal, refused)
	if paired == 0 || unequal == 0 || refused == 0 {
		t.Fatal("a case never occurred")
	}
}

// TestPairCountsBothLanesOrNeither pins the counter contract: a formed
// pair counts one deficit walk per lane, a refused one counts nothing
// (the caller prices those lanes one by one, and they count then).
func TestPairCountsBothLanesOrNeither(t *testing.T) {
	walks := obs.New().Counter("energy.deficit_walks")
	in := &Instruments{DeficitWalks: walks}
	b1 := mustBattery(t, 5000, constSolar(40, 0), false)
	b2 := mustBattery(t, 5000, constSolar(40, 0), false)
	b1.Instrument(in)
	b2.Instrument(in)
	for _, b := range []*Battery{b1, b2} {
		if err := b.Consume(3, 500); err != nil {
			t.Fatal(err)
		}
	}
	var tab1, tab2 UnitPrices
	b1.FillUnitPrices(&tab1, 0, testPrice)
	b2.FillUnitPrices(&tab2, 0, testPrice)
	before := walks.Value()
	if _, _, ok := PriceDeficitPair(5, b1, 100, &tab1, b2, 200, &tab2); !ok {
		t.Fatal("two constant-run lanes did not pair")
	}
	if got := walks.Value() - before; got != 2 {
		t.Fatalf("a formed pair counted %d walks, want 2", got)
	}
	before = walks.Value()
	if _, _, ok := PriceDeficitPair(5, b1, 100, &tab1, b2, 4900, &tab2); ok {
		t.Fatal("a lane within its draw of capacity paired")
	}
	if got := walks.Value() - before; got != 0 {
		t.Fatalf("a refused pair counted %d walks, want 0", got)
	}
}

// TestCheckInvariantsCatchesStaleMaximum: the feasibility shortcut is
// only sound while maxDeficit bounds every slot.
func TestCheckInvariantsCatchesStaleMaximum(t *testing.T) {
	b := mustBattery(t, 1000, constSolar(10, 0), false)
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
	b, err := NewBattery(117000, constSolar(span+1, 1200), false)
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

// The three benchmarks price the same relay-sized draw over the same
// 64-slot window and report ns per slot walked: the reference walk (three
// arrays, feasibility test per slot), the constant-run kernel (one
// array) and the paired kernel (two lanes per loop, per-lane cost).
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

func BenchmarkPriceDeficitPair(b *testing.B) {
	bat1, tab1 := loadedBattery(b, benchSpan)
	bat2, tab2 := loadedBattery(b, benchSpan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c1, c2, ok := PriceDeficitPair(0, bat1, 70, tab1, bat2, 90, tab2)
		if !ok {
			b.Fatal("lanes did not pair")
		}
		benchSink += c1 + c2
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*benchSpan), "ns/slot")
}
