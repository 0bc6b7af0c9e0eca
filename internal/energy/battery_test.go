package energy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustBattery(t testing.TB, capJ float64, solar []float64, clamp bool) *Battery {
	t.Helper()
	b, err := NewBattery(capJ, solar, clamp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func constSolar(n int, perSlot float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = perSlot
	}
	return s
}

func TestNewBatteryErrors(t *testing.T) {
	tests := []struct {
		name  string
		capJ  float64
		solar []float64
	}{
		{"zero capacity", 0, constSolar(4, 1)},
		{"negative capacity", -5, constSolar(4, 1)},
		{"empty solar", 100, nil},
		{"negative solar", 100, []float64{1, -1}},
		{"NaN solar", 100, []float64{1, math.NaN()}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewBattery(tt.capJ, tt.solar, false); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestFreshBatteryState(t *testing.T) {
	b := mustBattery(t, 100, constSolar(10, 5), false)
	if b.Horizon() != 10 {
		t.Errorf("Horizon = %d", b.Horizon())
	}
	if b.CapacityJ() != 100 {
		t.Errorf("CapacityJ = %v", b.CapacityJ())
	}
	for tt := 0; tt < 10; tt++ {
		if b.DeficitAt(tt) != 0 {
			t.Errorf("slot %d: deficit %v, want 0", tt, b.DeficitAt(tt))
		}
		if b.LevelAt(tt) != 100 {
			t.Errorf("slot %d: level %v, want 100", tt, b.LevelAt(tt))
		}
		if b.UtilizationAt(tt) != 0 {
			t.Errorf("slot %d: utilization %v, want 0", tt, b.UtilizationAt(tt))
		}
		if b.SolarRemainingAt(tt) != 5 {
			t.Errorf("slot %d: solar %v, want 5", tt, b.SolarRemainingAt(tt))
		}
	}
	// Out-of-range queries are zero, not panics.
	if b.DeficitAt(-1) != 0 || b.DeficitAt(99) != 0 || b.SolarRemainingAt(-1) != 0 {
		t.Error("out-of-range queries should be zero")
	}
}

func TestConsumeFullyCoveredBySolar(t *testing.T) {
	b := mustBattery(t, 100, constSolar(5, 10), false)
	if err := b.Consume(1, 7); err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 5; tt++ {
		if b.DeficitAt(tt) != 0 {
			t.Errorf("slot %d: deficit %v, want 0 (solar covered everything)", tt, b.DeficitAt(tt))
		}
	}
	if b.SolarRemainingAt(1) != 3 {
		t.Errorf("solar at 1 = %v, want 3", b.SolarRemainingAt(1))
	}
}

func TestConsumeCreatesDecayingDeficit(t *testing.T) {
	// Solar 10/slot, consume 35 at slot 0:
	// deficit after slot 0 = 25, slot 1 = 15, slot 2 = 5, slot 3 = 0.
	b := mustBattery(t, 100, constSolar(6, 10), false)
	if err := b.Consume(0, 35); err != nil {
		t.Fatal(err)
	}
	want := []float64{25, 15, 5, 0, 0, 0}
	for tt, w := range want {
		if got := b.DeficitAt(tt); math.Abs(got-w) > 1e-9 {
			t.Errorf("slot %d: deficit %v, want %v", tt, got, w)
		}
	}
	// Solar in slots 0-3 fully claimed, slot 3 partially (5 of 10).
	wantSolar := []float64{0, 0, 0, 5, 10, 10}
	for tt, w := range wantSolar {
		if got := b.SolarRemainingAt(tt); math.Abs(got-w) > 1e-9 {
			t.Errorf("slot %d: solar %v, want %v", tt, got, w)
		}
	}
}

func TestConsumeInUmbraSlots(t *testing.T) {
	// No solar at all: deficit persists to the end of the horizon.
	b := mustBattery(t, 100, constSolar(4, 0), false)
	if err := b.Consume(1, 40); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 40, 40, 40}
	for tt, w := range want {
		if got := b.DeficitAt(tt); got != w {
			t.Errorf("slot %d: deficit %v, want %v", tt, got, w)
		}
	}
	if b.LevelAt(3) != 60 {
		t.Errorf("level = %v, want 60", b.LevelAt(3))
	}
	if b.UtilizationAt(3) != 0.4 {
		t.Errorf("utilization = %v, want 0.4", b.UtilizationAt(3))
	}
}

func TestConsumeStackingTwoRequests(t *testing.T) {
	b := mustBattery(t, 100, constSolar(6, 10), false)
	if err := b.Consume(0, 30); err != nil { // deficits 20,10,0...
		t.Fatal(err)
	}
	if err := b.Consume(1, 25); err != nil { // slot1 solar already used by req1
		t.Fatal(err)
	}
	// After req1: solar = [0,0,0,10,10,10], deficit = [20,10,0,0,0,0]
	// (req1's 30 J fully claimed the solar of slots 0-2).
	// Req2 at slot1: no solar left in slots 1-2 -> deficit 25 persists;
	// slot3 absorbs 10 -> 15; slot4 absorbs 10 -> 5; slot5 absorbs it.
	want := []float64{20, 35, 25, 15, 5, 0}
	for tt, w := range want {
		if got := b.DeficitAt(tt); math.Abs(got-w) > 1e-9 {
			t.Errorf("slot %d: deficit %v, want %v", tt, got, w)
		}
	}
}

func TestConsumeErrors(t *testing.T) {
	b := mustBattery(t, 100, constSolar(4, 1), false)
	if err := b.Consume(0, -1); err == nil {
		t.Error("negative joules should error")
	}
	if err := b.Consume(0, math.NaN()); err == nil {
		t.Error("NaN joules should error")
	}
	if err := b.Consume(-1, 5); err == nil {
		t.Error("negative slot should error")
	}
	if err := b.Consume(4, 5); err == nil {
		t.Error("slot beyond horizon should error")
	}
	if err := b.Consume(0, 0); err != nil {
		t.Errorf("zero joules should be a no-op, got %v", err)
	}
}

func TestConsumeStrictRejectsDepletion(t *testing.T) {
	b := mustBattery(t, 50, constSolar(4, 0), false)
	if err := b.Consume(0, 40); err != nil {
		t.Fatal(err)
	}
	err := b.Consume(1, 20) // would reach deficit 60 > 50
	if err == nil {
		t.Fatal("expected depletion error")
	}
	var de *DepletionError
	if !errors.As(err, &de) {
		t.Fatalf("error type = %T, want *DepletionError", err)
	}
	if de.CapacityJ != 50 {
		t.Errorf("error capacity = %v", de.CapacityJ)
	}
	// Atomicity: the failed consume must not have changed anything.
	want := []float64{40, 40, 40, 40}
	for tt, w := range want {
		if got := b.DeficitAt(tt); got != w {
			t.Errorf("slot %d: deficit %v, want %v (rollback)", tt, got, w)
		}
	}
}

func TestConsumeClampSaturatesAtEmpty(t *testing.T) {
	b := mustBattery(t, 50, constSolar(4, 0), true)
	if err := b.Consume(0, 80); err != nil {
		t.Fatalf("clamp mode must accept: %v", err)
	}
	for tt := 0; tt < 4; tt++ {
		if got := b.DeficitAt(tt); got != 50 {
			t.Errorf("slot %d: deficit %v, want 50 (pegged at empty)", tt, got)
		}
		if b.LevelAt(tt) != 0 {
			t.Errorf("slot %d: level %v, want 0", tt, b.LevelAt(tt))
		}
	}
	// Second consumption cannot push deficit past capacity.
	if err := b.Consume(1, 30); err != nil {
		t.Fatal(err)
	}
	if got := b.DeficitAt(2); got != 50 {
		t.Errorf("deficit = %v, want still 50", got)
	}
}

func TestClampedCarryIsBounded(t *testing.T) {
	// With clamping, an oversized consumption must not depress the ledger
	// for longer than draining a full battery would: capacity 30, solar
	// 10/slot resumes at slot 2 — a full battery drains in 3 solar slots.
	solar := []float64{0, 0, 10, 10, 10, 10, 10}
	b := mustBattery(t, 30, solar, true)
	if err := b.Consume(0, 1000); err != nil {
		t.Fatal(err)
	}
	if got := b.DeficitAt(4); got != 0 {
		t.Errorf("deficit at slot 4 = %v, want 0 (carry capped at capacity)", got)
	}
}

func TestFeasible(t *testing.T) {
	b := mustBattery(t, 50, constSolar(4, 0), false)
	if !b.Feasible(0, 50) {
		t.Error("exactly-capacity consumption should be feasible")
	}
	if b.Feasible(0, 50.1) {
		t.Error("over-capacity consumption should be infeasible")
	}
	if err := b.Consume(0, 30); err != nil {
		t.Fatal(err)
	}
	if !b.Feasible(2, 20) {
		t.Error("stacking to exactly capacity should be feasible")
	}
	if b.Feasible(2, 21) {
		t.Error("stacking past capacity should be infeasible")
	}
	// Clamp mode is always feasible.
	c := mustBattery(t, 10, constSolar(2, 0), true)
	if !c.Feasible(0, 1e9) {
		t.Error("clamp mode must always report feasible")
	}
}

func TestVisitDeficitMatchesTelescopedFormula(t *testing.T) {
	// Property (fresh battery, single consumption): the visited deficit at
	// slot T equals max(0, J - sum of solar over [ta..T]) — the telescoped
	// form of Eq. (2).
	f := func(rawJ float64, rawTa uint8, rawSolar []float64) bool {
		n := 20
		solar := make([]float64, n)
		for i := range solar {
			if i < len(rawSolar) {
				solar[i] = math.Mod(math.Abs(rawSolar[i]), 50)
				if math.IsNaN(solar[i]) {
					solar[i] = 0
				}
			}
		}
		j := math.Mod(math.Abs(rawJ), 500)
		if math.IsNaN(j) || j == 0 {
			return true
		}
		ta := int(rawTa) % n
		b, err := NewBattery(1e9, solar, false)
		if err != nil {
			return false
		}
		got := make(map[int]float64)
		b.VisitDeficit(ta, j, func(t int, out float64) bool {
			got[t] = out
			return true
		})
		cum := 0.0
		for t := ta; t < n; t++ {
			cum += solar[t]
			want := math.Max(0, j-cum)
			if math.Abs(got[t]-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVisitDeficitDoesNotMutate(t *testing.T) {
	b := mustBattery(t, 100, constSolar(5, 10), false)
	b.VisitDeficit(0, 45, func(t int, out float64) bool { return true })
	for tt := 0; tt < 5; tt++ {
		if b.DeficitAt(tt) != 0 || b.SolarRemainingAt(tt) != 10 {
			t.Fatalf("VisitDeficit mutated ledger at slot %d", tt)
		}
	}
}

func TestVisitDeficitEarlyStop(t *testing.T) {
	b := mustBattery(t, 100, constSolar(10, 1), false)
	calls := 0
	b.VisitDeficit(0, 50, func(t int, out float64) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Errorf("calls = %d, want 3 (early stop)", calls)
	}
}

func TestVisitDeficitDegenerate(t *testing.T) {
	b := mustBattery(t, 100, constSolar(4, 1), false)
	called := false
	b.VisitDeficit(0, 0, func(int, float64) bool { called = true; return true })
	b.VisitDeficit(-1, 10, func(int, float64) bool { called = true; return true })
	b.VisitDeficit(9, 10, func(int, float64) bool { called = true; return true })
	if called {
		t.Error("degenerate visits should not invoke fn")
	}
}

func TestClone(t *testing.T) {
	b := mustBattery(t, 100, constSolar(4, 5), false)
	if err := b.Consume(0, 12); err != nil {
		t.Fatal(err)
	}
	c := b.Clone()
	if err := c.Consume(1, 30); err != nil {
		t.Fatal(err)
	}
	// The original is unaffected by the clone's consumption.
	if b.DeficitAt(1) != c.DeficitAt(1) && b.DeficitAt(1) == 7 {
		t.Log("expected divergence confirmed")
	}
	if got := b.DeficitAt(1); math.Abs(got-2) > 1e-9 {
		t.Errorf("original deficit at 1 = %v, want 2", got)
	}
	if got := c.DeficitAt(1); got <= b.DeficitAt(1) {
		t.Errorf("clone deficit %v should exceed original %v", got, b.DeficitAt(1))
	}
}

// Property: in strict mode, whatever sequence of feasible consumptions is
// applied, deficits stay within [0, capacity] and unclaimed solar within
// [0, input].
func TestInvariantsUnderRandomFeasibleLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 30
		solar := make([]float64, n)
		for i := range solar {
			solar[i] = rng.Float64() * 20
		}
		capJ := 100.0
		b := mustBattery(t, capJ, solar, false)
		for step := 0; step < 50; step++ {
			ta := rng.Intn(n)
			j := rng.Float64() * 60
			if b.Feasible(ta, j) {
				if err := b.Consume(ta, j); err != nil {
					t.Fatalf("trial %d: feasible consume failed: %v", trial, err)
				}
			} else if err := b.Consume(ta, j); err == nil {
				t.Fatalf("trial %d: infeasible consume succeeded", trial)
			}
			for tt := 0; tt < n; tt++ {
				if d := b.DeficitAt(tt); d < -1e-9 || d > capJ+1e-6 {
					t.Fatalf("trial %d: deficit %v out of [0,%v] at slot %d", trial, d, capJ, tt)
				}
				if s := b.SolarRemainingAt(tt); s < -1e-9 || s > solar[tt]+1e-9 {
					t.Fatalf("trial %d: solar %v out of range at slot %d", trial, s, tt)
				}
			}
		}
	}
}

// Property: deficits are non-increasing over time for a single
// consumption (the profile decays as solar absorbs it).
func TestSingleConsumptionDeficitMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 25
		solar := make([]float64, n)
		for i := range solar {
			solar[i] = rng.Float64() * 15
		}
		b := mustBattery(t, 1e6, solar, false)
		ta := rng.Intn(n)
		if err := b.Consume(ta, rng.Float64()*200); err != nil {
			t.Fatal(err)
		}
		for tt := ta + 1; tt < n; tt++ {
			if b.DeficitAt(tt) > b.DeficitAt(tt-1)+1e-9 {
				t.Fatalf("trial %d: deficit increased from slot %d to %d", trial, tt-1, tt)
			}
		}
	}
}

// TestNewFleetFillsSolarFromSunlitRows: each ledger harvests in exactly
// the slots its satellite is sunlit, starts full, and owns its cells even
// though every fleet ledger is carved from one backing array.
func TestNewFleetFillsSolarFromSunlitRows(t *testing.T) {
	rows := [][]bool{{true, false, true}, {false, false, true}, {true, true, true}, {false, true, false}}
	fleet, err := NewFleet(3, len(rows), 5000, 1200, false, func(t int) []bool { return rows[t] })
	if err != nil {
		t.Fatal(err)
	}
	untouched := func(sat int) {
		t.Helper()
		b := fleet[sat]
		for slot, row := range rows {
			want := 0.0
			if row[sat] {
				want = 1200
			}
			if got := b.SolarRemainingAt(slot); got != want || b.DeficitAt(slot) != 0 {
				t.Fatalf("satellite %d slot %d: solar %v deficit %v, want %v and 0", sat, slot, got, b.DeficitAt(slot), want)
			}
		}
		if first, last := b.DeficitSpan(); first <= last || b.CheckInvariants() != nil {
			t.Fatalf("satellite %d is not full: span [%d, %d]", sat, first, last)
		}
	}
	for sat, b := range fleet {
		if b.Horizon() != len(rows) || b.CapacityJ() != 5000 {
			t.Fatalf("satellite %d: horizon %d, capacity %v", sat, b.Horizon(), b.CapacityJ())
		}
		untouched(sat)
	}
	// Running the middle ledger's last slot into deficit touches neither
	// neighbour in the backing array.
	if err := fleet[1].Consume(len(rows)-1, 3000); err != nil {
		t.Fatal(err)
	}
	untouched(0)
	untouched(2)
	if got := fleet[1].DeficitAt(len(rows) - 1); got != 3000-1200 { // the slot is sunlit
		t.Fatalf("deficit %v, want 1800", got)
	}

	sunlit := func(int) []bool { return rows[0] }
	for _, bad := range []struct {
		name           string
		horizon        int
		capJ, harvestJ float64
	}{{"zero capacity", 4, 0, 1}, {"zero horizon", 0, 1, 1}, {"negative harvest", 4, 1, -1}, {"NaN harvest", 4, 1, math.NaN()}} {
		if _, err := NewFleet(3, bad.horizon, bad.capJ, bad.harvestJ, false, sunlit); err == nil {
			t.Errorf("%s: no error", bad.name)
		}
	}
}

// sameLedger reports how a differs from b in anything but the stamp:
// every cell's bits, the deficit bounds and the maximum.
func sameLedger(a, b *Battery) string {
	for t := range a.cell {
		if math.Float64bits(a.cell[t]) != math.Float64bits(b.cell[t]) {
			return fmt.Sprintf("slot %d: cell %v, want %v", t, a.cell[t], b.cell[t])
		}
	}
	if a.firstDeficit != b.firstDeficit || a.lastDeficit != b.lastDeficit {
		return fmt.Sprintf("span [%d, %d], want [%d, %d]", a.firstDeficit, a.lastDeficit, b.firstDeficit, b.lastDeficit)
	}
	if math.Float64bits(a.maxDeficit) != math.Float64bits(b.maxDeficit) {
		return fmt.Sprintf("max deficit %v, want %v", a.maxDeficit, b.maxDeficit)
	}
	return ""
}

// TestUndoRollbackRestoresAndCommitReplays is the undo log's property
// test. Seeded scripts load three batteries, then open a transaction of
// random consumptions through one log — the same battery and slot again
// and again, draws that fail in strict mode among them — and end it. A
// rollback must leave every battery equal, bit for bit, to a Clone taken
// before the transaction; a commit (Reset) must leave it equal to a twin
// that applied the same consumptions with plain Consume.
func TestUndoRollbackRestoresAndCommitReplays(t *testing.T) {
	for _, clamp := range []bool{false, true} {
		rollbacks, commits, failed := 0, 0, 0
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var bats, twins [3]*Battery
			for i := range bats {
				solar := make([]float64, driverHorizon)
				for s := range solar {
					if (s+5*i)%16 < 10 {
						solar[s] = 30 + 10*rng.Float64()
					}
				}
				bats[i] = mustBattery(t, 2000, solar, clamp)
			}
			draw := func() (int, int, float64) {
				return rng.Intn(len(bats)), rng.Intn(driverHorizon), 600 * rng.Float64()
			}
			for range 20 { // history before the transaction
				i, ta, j := draw()
				_ = bats[i].Consume(ta, j)
			}
			var before [3]*Battery
			for i, b := range bats {
				before[i], twins[i] = b.Clone(), b.Clone()
			}
			var undo Undo
			for range 1 + rng.Intn(30) {
				i, ta, j := draw()
				err := undo.Consume(bats[i], ta, j)
				if twinErr := twins[i].Consume(ta, j); (err == nil) != (twinErr == nil) {
					t.Fatalf("clamp %v seed %d: logged Consume %v, plain Consume %v", clamp, seed, err, twinErr)
				}
				if err != nil {
					failed++
				}
			}
			want := twins
			if rng.Intn(2) == 0 {
				undo.Rollback()
				want = before
				rollbacks++
			} else {
				undo.Reset()
				commits++
			}
			if undo.Len() != 0 {
				t.Fatalf("clamp %v seed %d: log holds %d writes after the transaction ended", clamp, seed, undo.Len())
			}
			for i, b := range bats {
				if diff := sameLedger(b, want[i]); diff != "" {
					t.Fatalf("clamp %v seed %d battery %d: %s", clamp, seed, i, diff)
				}
				if err := b.CheckInvariants(); err != nil {
					t.Fatalf("clamp %v seed %d battery %d: %v", clamp, seed, i, err)
				}
			}
		}
		if rollbacks == 0 || commits == 0 || (!clamp && failed == 0) {
			t.Fatalf("clamp %v: %d rollbacks, %d commits, %d failed draws", clamp, rollbacks, commits, failed)
		}
	}
}

// Property: clamp-mode deficits never exceed capacity, whatever the load.
func TestClampModeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 30; trial++ {
		n := 25
		solar := make([]float64, n)
		for i := range solar {
			solar[i] = rng.Float64() * 10
		}
		capJ := 50.0
		b := mustBattery(t, capJ, solar, true)
		for step := 0; step < 80; step++ {
			if err := b.Consume(rng.Intn(n), rng.Float64()*200); err != nil {
				t.Fatalf("trial %d: clamp-mode consume failed: %v", trial, err)
			}
		}
		for tt := 0; tt < n; tt++ {
			d := b.DeficitAt(tt)
			if d < -1e-9 || d > capJ+1e-9 {
				t.Fatalf("trial %d slot %d: deficit %v outside [0,%v]", trial, tt, d, capJ)
			}
			if b.LevelAt(tt) < -1e-9 {
				t.Fatalf("trial %d slot %d: level below empty", trial, tt)
			}
		}
	}
}

// Property: Clone is observationally identical until one side mutates.
func TestCloneIsDeepAndIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	solar := make([]float64, 20)
	for i := range solar {
		solar[i] = rng.Float64() * 12
	}
	b := mustBattery(t, 200, solar, false)
	for i := 0; i < 10; i++ {
		ta := rng.Intn(20)
		j := rng.Float64() * 30
		if b.Feasible(ta, j) {
			if err := b.Consume(ta, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := b.Clone()
	for tt := 0; tt < 20; tt++ {
		if b.DeficitAt(tt) != c.DeficitAt(tt) || b.SolarRemainingAt(tt) != c.SolarRemainingAt(tt) {
			t.Fatalf("clone differs at slot %d before mutation", tt)
		}
	}
	if c.CapacityJ() != b.CapacityJ() || c.Horizon() != b.Horizon() {
		t.Error("clone metadata differs")
	}
}
