package netstate

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"spacebooking/internal/graph"
	"spacebooking/internal/grid"
)

// refLedger is the plain reference the dense ledger is checked against:
// one map cell per (link, slot), the arithmetic of the per-link ledgers
// it replaced (add on reserve; subtract and clamp at zero on release).
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

func (r *refLedger) release(key LinkKey, slot int, rate float64) {
	c := refCell{key, slot}
	r.used[c] -= rate
	if r.used[c] < 0 {
		r.used[c] = 0
	}
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

// TestLedgerMatchesReferenceMap drives the dense slot-major ledger and a
// plain map through the same seeded sequence of direct reservations,
// transactions that commit and transactions that roll back, over ISL and
// USL keys, and requires identical reads, errors and derived counts
// after every step.
func TestLedgerMatchesReferenceMap(t *testing.T) {
	sites := []grid.Site{{ID: 0, LatDeg: 40, LonDeg: -74}, {ID: 1, LatDeg: 51, LonDeg: 0}}
	for seed := int64(1); seed <= 4; seed++ {
		s := newTestState(t, sites, false)
		ref := &refLedger{used: make(map[refCell]float64), capacity: s.linkCapacity}
		pool := ledgerPool(s)
		horizon := s.Provider().Horizon()
		rng := rand.New(rand.NewSource(seed))

		// A fresh ledger has no rows at all: every read is a nil-row read.
		compareLedger(t, -1, s, ref, pool)

		type held struct {
			key  LinkKey
			slot int
			rate float64
		}
		var committed []held
		randomCell := func() (LinkKey, int, float64) {
			key := pool[rng.Intn(len(pool))]
			// Rates up to 45% of capacity: a third reservation on one cell
			// is over-subscribed about as often as not.
			return key, rng.Intn(horizon), (0.05 + 0.4*rng.Float64()) * s.linkCapacity(key)
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 3: // direct reservation
				key, slot, rate := randomCell()
				err, refErr := s.ReserveLink(key, slot, rate), ref.reserve(key, slot, rate)
				if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
					t.Fatalf("seed %d step %d: ReserveLink error %v, reference %v", seed, step, err, refErr)
				}
				if err == nil {
					committed = append(committed, held{key, slot, rate})
				}
			case op < 5 && len(committed) > 0: // release an earlier reservation
				i := rng.Intn(len(committed))
				h := committed[i]
				committed = append(committed[:i], committed[i+1:]...)
				s.unreserveLink(h.key, h.slot, h.rate)
				ref.release(h.key, h.slot, h.rate)
			default: // transaction: a few reservations, then commit or roll back
				txn := s.Begin()
				var mine []held
				for n := 1 + rng.Intn(4); n > 0; n-- {
					key, slot, rate := randomCell()
					err := txn.ReservePath(cellView{key, slot, rate}, graph.Path{Nodes: []int{key.From(), key.To()}})
					refErr := ref.reserve(key, slot, rate)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("seed %d step %d: ReservePath error %v, reference %v", seed, step, err, refErr)
					}
					if err == nil {
						mine = append(mine, held{key, slot, rate})
					}
				}
				if op < 8 {
					txn.Rollback()
					for _, h := range mine {
						ref.release(h.key, h.slot, h.rate)
					}
				} else {
					txn.Commit()
					committed = append(committed, mine...)
				}
			}
			compareLedger(t, step, s, ref, pool)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Releasing everything returns every link to idle: nothing active,
		// nothing congested at any threshold in (0, 1].
		for _, h := range committed {
			s.unreserveLink(h.key, h.slot, h.rate)
			ref.release(h.key, h.slot, h.rate)
		}
		compareLedger(t, 300, s, ref, pool)
	}
}

// TestLedgerRejectsNonISLPairs: two satellites that are not +Grid
// neighbours have no link to reserve; reads on the pair are zero.
func TestLedgerRejectsNonISLPairs(t *testing.T) {
	s := newTestState(t, nil, false)
	key := MakeLinkKey(0, 50)
	if s.islEdge(0, 50) >= 0 {
		t.Fatal("test premise: satellites 0 and 50 must not be neighbours")
	}
	if err := s.ReserveLink(key, 1, 100); err == nil || !strings.Contains(err.Error(), "no ISL 0->50") {
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
	s := newTestState(t, []grid.Site{{ID: 0, LatDeg: 40, LonDeg: -74}}, false)
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

// TestCheckInvariantsReportsBadRelease: unreserveLink still clamps and
// carries on when asked to release what was never reserved, and
// CheckInvariants is where that shows.
func TestCheckInvariantsReportsBadRelease(t *testing.T) {
	isl, usl := MakeLinkKey(0, 1), MakeLinkKey(96, 3)
	cases := []struct {
		name  string
		setup func(s *State)
	}{
		{"unknown ISL cell", func(s *State) { s.unreserveLink(isl, 2, 10) }},
		{"unknown USL cell", func(s *State) { s.unreserveLink(usl, 2, 10) }},
		{"slot outside the horizon", func(s *State) { s.unreserveLink(isl, -1, 10) }},
		{"over-release", func(s *State) {
			if err := s.ReserveLink(isl, 2, 100); err != nil {
				t.Fatal(err)
			}
			s.unreserveLink(isl, 2, 500)
		}},
		{"over-capacity cell", func(s *State) {
			if err := s.ReserveLink(isl, 2, 100); err != nil {
				t.Fatal(err)
			}
			s.isl[2][s.islEdge(0, 1)] = 2 * s.islCapMbps
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestState(t, []grid.Site{{ID: 0, LatDeg: 40, LonDeg: -74}}, false)
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("fresh state: %v", err)
			}
			tc.setup(s)
			if err := s.CheckInvariants(); err == nil {
				t.Fatal("CheckInvariants passed")
			}
		})
	}

	// Float dust is not a fault: (a+r1+r2)-r1-r2 may land a hair below a.
	s := newTestState(t, nil, false)
	for _, r := range []float64{0.1, 0.2, 0.3} {
		if err := s.ReserveLink(isl, 0, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []float64{0.1, 0.2, 0.3} {
		s.unreserveLink(isl, 0, r)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("dust-sized over-release reported: %v", err)
	}
}
