package energy

import (
	"math"
	"testing"

	"spacebooking/internal/obs"
)

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
			b1.FillUnitPrices(&tab1, testPrice)
			b2.FillUnitPrices(&tab2, testPrice)
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
	b1.FillUnitPrices(&tab1, testPrice)
	b2.FillUnitPrices(&tab2, testPrice)
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
	b.maxDeficit = b.deficit[4] / 2
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
	b.FillUnitPrices(tab, testPrice)
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
		cost, _, _ := bat.walk(0, 70, tab.unit, bat.limit())
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
