package netstate

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"strings"
	"testing"

	"spacebooking/internal/graph"
	"spacebooking/internal/grid"
)

// refLedger is the plain reference the dense ledger is checked against:
// one map cell per (link, slot), the arithmetic of the per-link ledgers
// it replaced (add on reserve). It rolls a transaction back by restoring
// a copy of the whole map taken when the transaction began.
type refLedger struct {
	used     map[refCell]float64
	capacity func(LinkKey) float64
}

type refCell struct {
	key  LinkKey
	slot int
}

func (r *refLedger) reserve(key LinkKey, slot int, rate float64) error {
	c := refCell{key, slot}
	if capacity := r.capacity(key); r.used[c]+rate > capacity*(1+1e-12) {
		return fmt.Errorf("netstate: link %d->%d over-subscribed at slot %d: %v + %v > %v",
			key.From(), key.To(), slot, r.used[c], rate, capacity)
	}
	r.used[c] += rate
	return nil
}

// ledgerPool returns the links the parity test exercises: every ISL of a
// few satellites plus USLs in both directions between two ground sites
// and a handful of satellites.
func ledgerPool(s *State) []LinkKey {
	var pool []LinkKey
	for _, sat := range []int{0, 1, 13, 47, 95} {
		for _, n := range s.Provider().ISLNeighbors(sat) {
			pool = append(pool, MakeLinkKey(sat, n))
		}
	}
	for site := 0; site < 2; site++ {
		gid := s.Provider().NumSats() + site
		for _, sat := range []int{0, 5, 13, 60} {
			pool = append(pool, MakeLinkKey(gid, sat), MakeLinkKey(sat, gid))
		}
	}
	return pool
}

// cellView is a one-link SlotView: ReservePath over a two-node path
// reserves exactly (key, slot, rate) under the transaction.
type cellView struct {
	key  LinkKey
	slot int
	rate float64
}

func (v cellView) LinkKeyFor(from, to int) LinkKey { return v.key }
func (v cellView) Slot() int                       { return v.slot }
func (v cellView) DemandMbps() float64             { return v.rate }

// compareLedger requires the state to read exactly like the reference on
// every pool link and slot, and the derived counts to agree.
func compareLedger(t *testing.T, step int, s *State, ref *refLedger, pool []LinkKey) {
	t.Helper()
	horizon := s.Provider().Horizon()
	for _, key := range pool {
		for slot := 0; slot < horizon; slot++ {
			want := ref.used[refCell{key, slot}]
			if got := s.LinkUsedMbps(key, slot); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: link %d->%d slot %d: used %v, reference %v", step, key.From(), key.To(), slot, got, want)
			}
			if got, wantU := s.LinkUtilization(key, slot), want/ref.capacity(key); got != wantU {
				t.Fatalf("step %d: link %d->%d slot %d: utilization %v, reference %v", step, key.From(), key.To(), slot, got, wantU)
			}
		}
	}
	for _, thr := range []float64{0.05, 0.1, 0.5, 1} {
		for slot := 0; slot < horizon; slot++ {
			// The replaced ledger swept every link ever reserved, rolled
			// back or not; for thresholds in (0, 1] an idle link never
			// qualifies, so sweeping the whole pool is the same count.
			want := 0
			for _, key := range pool {
				capacity := ref.capacity(key)
				if capacity-ref.used[refCell{key, slot}] < thr*capacity {
					want++
				}
			}
			if got := s.CongestedLinkCount(slot, thr); got != want {
				t.Fatalf("step %d: CongestedLinkCount(%d, %v) = %d, reference %d", step, slot, thr, got, want)
			}
		}
	}
}

// ledgerScript drives s and a fresh reference through the same seeded
// sequence of direct reservations and of transactions that commit or roll
// back, over ISL and USL keys. Every error must be the reference's, and a
// direct reservation must return what the cell held. A rollback must
// leave each cell its transaction touched Float64bits-equal to before the
// transaction, a commit each one at the reference's sum; CheckInvariants
// must hold after every step. check, when not nil, runs after every step
// too.
func ledgerScript(t *testing.T, s *State, seed int64, check func(step int, ref *refLedger)) {
	t.Helper()
	ref := &refLedger{used: make(map[refCell]float64), capacity: s.linkCapacity}
	pool := ledgerPool(s)
	horizon := s.Provider().Horizon()
	rng := rand.New(rand.NewSource(seed))
	randomCell := func() (LinkKey, int, float64) {
		key := pool[rng.Intn(len(pool))]
		// Rates up to 45% of capacity: a third reservation on one cell
		// is over-subscribed about as often as not.
		return key, rng.Intn(horizon), (0.05 + 0.4*rng.Float64()) * s.linkCapacity(key)
	}
	sameErr := func(err, refErr error) bool {
		return (err == nil) == (refErr == nil) && (err == nil || err.Error() == refErr.Error())
	}
	for step := 0; step < 300; step++ {
		if op := rng.Intn(10); op < 3 { // direct reservation
			key, slot, rate := randomCell()
			held := ref.used[refCell{key, slot}]
			was, err := s.ReserveLink(key, slot, rate)
			if refErr := ref.reserve(key, slot, rate); !sameErr(err, refErr) {
				t.Fatalf("seed %d step %d: ReserveLink error %v, reference %v", seed, step, err, refErr)
			}
			if err == nil && math.Float64bits(was) != math.Float64bits(held) {
				t.Fatalf("seed %d step %d: ReserveLink returned %v, the cell held %v", seed, step, was, held)
			}
		} else { // transaction: a few reservations, then commit or roll back
			saved := maps.Clone(ref.used)
			before := map[refCell]float64{}
			txn := s.Begin()
			for n := 1 + rng.Intn(4); n > 0; n-- {
				key, slot, rate := randomCell()
				if _, ok := before[refCell{key, slot}]; !ok {
					before[refCell{key, slot}] = s.LinkUsedMbps(key, slot)
				}
				err := txn.ReservePath(cellView{key, slot, rate}, graph.Path{Nodes: []int{key.From(), key.To()}})
				if refErr := ref.reserve(key, slot, rate); !sameErr(err, refErr) {
					t.Fatalf("seed %d step %d: ReservePath error %v, reference %v", seed, step, err, refErr)
				}
			}
			rolledBack := op < 8
			if rolledBack {
				txn.Rollback()
				ref.used = saved
			} else {
				txn.Commit()
			}
			for c, was := range before {
				want := ref.used[c]
				if rolledBack {
					want = was
				}
				if got := s.LinkUsedMbps(c.key, c.slot); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d (rolled back %v): link %d->%d slot %d holds %v, want %v",
						seed, step, rolledBack, c.key.From(), c.key.To(), c.slot, got, want)
				}
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		if check != nil {
			check(step, ref)
		}
	}
}

// TestLedgerMatchesReferenceMap runs ledgerScript on seeds 1–4 and
// requires identical reads and derived counts on every pool link and
// slot after every step.
func TestLedgerMatchesReferenceMap(t *testing.T) {
	sites := []grid.Site{{ID: 0, LatDeg: 40, LonDeg: -74}, {ID: 1, LatDeg: 51, LonDeg: 0}}
	for seed := int64(1); seed <= 4; seed++ {
		s := newTestState(t, sites)
		pool := ledgerPool(s)
		// A fresh ledger has no rows at all: every read is a nil-row read.
		compareLedger(t, -1, s, &refLedger{used: map[refCell]float64{}, capacity: s.linkCapacity}, pool)
		ledgerScript(t, s, seed, func(step int, ref *refLedger) { compareLedger(t, step, s, ref, pool) })
	}
}

// FuzzLedgerUndo is ledgerScript with the seed in the fuzzer's hands.
func FuzzLedgerUndo(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	prov := smallProvider(f, []grid.Site{{ID: 0, LatDeg: 40, LonDeg: -74}, {ID: 1, LatDeg: 51, LonDeg: 0}})
	f.Fuzz(func(t *testing.T, seed int64) {
		s, err := New(prov, DefaultEnergyConfig())
		if err != nil {
			t.Fatal(err)
		}
		ledgerScript(t, s, seed, nil)
	})
}

// TestLedgerRejectsNonISLPairs: two satellites that are not +Grid
// neighbours have no link to reserve; reads on the pair are zero.
func TestLedgerRejectsNonISLPairs(t *testing.T) {
	s := newTestState(t, nil)
	key := MakeLinkKey(0, 50)
	if s.islEdge(0, 50) >= 0 {
		t.Fatal("test premise: satellites 0 and 50 must not be neighbours")
	}
	if _, err := s.ReserveLink(key, 1, 100); err == nil || !strings.Contains(err.Error(), "no ISL 0->50") {
		t.Fatalf("ReserveLink on a non-neighbour pair: %v", err)
	}
	if got := s.LinkUsedMbps(key, 1); got != 0 {
		t.Errorf("used = %v on a non-existent ISL", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Errorf("a refused reservation must not count as a fault: %v", err)
	}
}

// TestCheckLedgerNamesSmallestFault: with two out-of-range USL cells in
// one slot, CheckInvariants names the one with the smaller key on every
// call, not whichever the map's iteration order reaches first.
func TestCheckLedgerNamesSmallestFault(t *testing.T) {
	s := newTestState(t, []grid.Site{{ID: 0, LatDeg: 40, LonDeg: -74}})
	site := s.Provider().NumSats()
	small, large := MakeLinkKey(site, 3), MakeLinkKey(site, 40)
	s.usl[2] = map[LinkKey]float64{small: 2 * s.uslCapMbps, large: 3 * s.uslCapMbps}
	want := fmt.Sprintf("USL %d->%d ", small.From(), small.To())
	for call := 0; call < 20; call++ {
		if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("call %d: CheckInvariants = %v, want the fault on %s", call, err, want)
		}
	}
}

// TestCheckInvariantsReportsBadRelease: a release that writes the wrong
// value back into a link cell - above capacity, below zero, or a USL
// entry left at zero instead of deleted - is a fault CheckInvariants
// reports.
func TestCheckInvariantsReportsBadRelease(t *testing.T) {
	isl := MakeLinkKey(0, 1)
	cases := []struct {
		name  string
		setup func(s *State)
	}{
		{"over-capacity cell", func(s *State) {
			if _, err := s.ReserveLink(isl, 2, 100); err != nil {
				t.Fatal(err)
			}
			s.isl[2][s.islEdge(0, 1)] = 2 * s.islCapMbps
		}},
		{"negative ISL cell", func(s *State) {
			if _, err := s.ReserveLink(isl, 2, 100); err != nil {
				t.Fatal(err)
			}
			s.isl[2][s.islEdge(0, 1)] = -1
		}},
		{"zero USL entry", func(s *State) {
			usl := MakeLinkKey(s.Provider().NumSats(), 3)
			if _, err := s.ReserveLink(usl, 2, 10); err != nil {
				t.Fatal(err)
			}
			s.usl[2][usl] = 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestState(t, []grid.Site{{ID: 0, LatDeg: 40, LonDeg: -74}})
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("fresh state: %v", err)
			}
			tc.setup(s)
			if err := s.CheckInvariants(); err == nil {
				t.Fatal("CheckInvariants passed")
			}
		})
	}
}
