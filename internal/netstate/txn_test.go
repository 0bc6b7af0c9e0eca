package netstate

import (
	"math"
	"testing"

	"spacebooking/internal/graph"
	"spacebooking/internal/obs"
)

func TestTxnCommitKeepsChanges(t *testing.T) {
	s := newTestState(t, twoCitySites(), false)
	slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
	v, err := NewView(s, slot, groundEP(0), groundEP(1), 500, hopCost)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := graph.ShortestPath(v, v.SrcNode(), v.DstNode(), nil)
	if !ok {
		t.Fatal("no route")
	}

	txn := s.Begin()
	if err := txn.ReservePath(v, p); err != nil {
		t.Fatal(err)
	}
	cons := v.PathConsumptions(p)
	if err := txn.Consume(cons); err != nil {
		t.Fatal(err)
	}
	txn.Commit()

	key := v.LinkKeyFor(p.Nodes[0], p.Nodes[1])
	if got := s.LinkUsedMbps(key, slot); got != 500 {
		t.Errorf("used = %v after commit", got)
	}
	// Battery state reflects the consumption (solar used or deficit).
	sat := p.Nodes[1]
	spent := (1200 - s.Battery(sat).SolarRemainingAt(slot)) + s.Battery(sat).DeficitAt(slot)
	if spent <= 0 && s.Provider().Sunlit(slot, sat) {
		t.Error("no energy accounted after commit")
	}
}

func TestTxnRollbackRestoresEverything(t *testing.T) {
	s := newTestState(t, twoCitySites(), false)
	slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
	v, err := NewView(s, slot, groundEP(0), groundEP(1), 750, hopCost)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := graph.ShortestPath(v, v.SrcNode(), v.DstNode(), nil)
	if !ok {
		t.Fatal("no route")
	}

	// Capture pre-state of every touched resource.
	type linkState struct {
		key  LinkKey
		used float64
	}
	var before []linkState
	for i := 0; i < len(p.Nodes)-1; i++ {
		key := v.LinkKeyFor(p.Nodes[i], p.Nodes[i+1])
		before = append(before, linkState{key, s.LinkUsedMbps(key, slot)})
	}
	batBefore := make(map[int][]float64)
	for _, n := range p.Nodes[1 : len(p.Nodes)-1] {
		var snap []float64
		for tt := 0; tt < s.Provider().Horizon(); tt++ {
			snap = append(snap, s.Battery(n).DeficitAt(tt), s.Battery(n).SolarRemainingAt(tt))
		}
		batBefore[n] = snap
	}

	txn := s.Begin()
	if err := txn.ReservePath(v, p); err != nil {
		t.Fatal(err)
	}
	if err := txn.Consume(v.PathConsumptions(p)); err != nil {
		t.Fatal(err)
	}
	txn.Rollback()

	for _, ls := range before {
		if got := s.LinkUsedMbps(ls.key, slot); got != ls.used {
			t.Errorf("link %v used = %v, want %v after rollback", ls.key, got, ls.used)
		}
	}
	for n, snap := range batBefore {
		i := 0
		for tt := 0; tt < s.Provider().Horizon(); tt++ {
			if got := s.Battery(n).DeficitAt(tt); got != snap[i] {
				t.Fatalf("sat %d deficit at %d = %v, want %v", n, tt, got, snap[i])
			}
			i++
			if got := s.Battery(n).SolarRemainingAt(tt); got != snap[i] {
				t.Fatalf("sat %d solar at %d = %v, want %v", n, tt, got, snap[i])
			}
			i++
		}
	}
}

func TestTxnRollbackIdempotent(t *testing.T) {
	s := newTestState(t, twoCitySites(), false)
	txn := s.Begin()
	if err := txn.Consume([]Consumption{{Sat: 0, Slot: 0, Joules: 100}}); err != nil {
		t.Fatal(err)
	}
	txn.Rollback()
	txn.Rollback() // must not panic or double-restore
	if got := s.Battery(0).DeficitAt(0); got != 0 {
		t.Errorf("deficit = %v after double rollback", got)
	}
}

func TestTxnFinishedRejectsFurtherUse(t *testing.T) {
	s := newTestState(t, twoCitySites(), false)
	txn := s.Begin()
	txn.Commit()
	if err := txn.Consume([]Consumption{{Sat: 0, Slot: 0, Joules: 1}}); err == nil {
		t.Error("consume after commit should error")
	}
	slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
	v, err := NewView(s, slot, groundEP(0), groundEP(1), 100, hopCost)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.ReservePath(v, graph.Path{Nodes: []int{0, 1}, Edges: make([]graph.Edge, 1)}); err == nil {
		t.Error("reserve after commit should error")
	}
}

func TestTxnPartialFailureThenRollback(t *testing.T) {
	// Strict batteries: an infeasible consume fails mid-transaction; the
	// rollback must still restore the earlier successful consumptions.
	s := newTestState(t, twoCitySites(), false)
	capJ := s.Battery(3).CapacityJ()
	dark := -1
	for slot := 0; slot < s.Provider().Horizon(); slot++ {
		if !s.Provider().Sunlit(slot, 3) {
			dark = slot
			break
		}
	}
	if dark < 0 {
		t.Skip("satellite 3 never in umbra")
	}
	txn := s.Begin()
	if err := txn.Consume([]Consumption{{Sat: 3, Slot: dark, Joules: capJ * 0.9}}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Consume([]Consumption{{Sat: 3, Slot: dark, Joules: capJ * 0.5}}); err == nil {
		t.Fatal("expected infeasible consume to fail")
	}
	txn.Rollback()
	if got := s.Battery(3).DeficitAt(dark); got != 0 {
		t.Errorf("deficit = %v after rollback of partial failure", got)
	}
}

func TestUnreserveLinkClampsAtZero(t *testing.T) {
	s := newTestState(t, nil, false)
	key := MakeLinkKey(0, 1)
	if err := s.ReserveLink(key, 2, 100); err != nil {
		t.Fatal(err)
	}
	s.unreserveLink(key, 2, 500) // over-release clamps
	if got := s.LinkUsedMbps(key, 2); got != 0 {
		t.Errorf("used = %v, want 0", got)
	}
	s.unreserveLink(MakeLinkKey(5, 6), 0, 10) // unknown link: no-op
	s.unreserveLink(key, -1, 10)              // bad slot: no-op
	if math.IsNaN(s.LinkUsedMbps(key, 2)) {
		t.Error("ledger corrupted")
	}
}

// TestUndoLogIsSizedByTheTransaction: a transaction's battery undo log
// holds the cells its consumptions wrote — at most a horizon per
// consumption, never whole batteries — and is empty again once it ends.
// Transactions that between them touch every satellite leave the log's
// buffers at the size of the largest single one: a second sweep over
// the satellites allocates nothing. Rollbacks still restore exactly.
func TestUndoLogIsSizedByTheTransaction(t *testing.T) {
	s := newTestState(t, twoCitySites(), false)
	numSats, horizon := s.Provider().NumSats(), s.Provider().Horizon()
	const perTxn = 3
	largest := 0
	sweep := func() {
		for first := 0; first+perTxn <= numSats; first += perTxn {
			var cons [perTxn]Consumption
			for i := range cons {
				cons[i] = Consumption{Sat: first + i, Slot: 2, Joules: 5000}
			}
			before := s.Battery(first).DeficitAt(2)
			txn := s.Begin()
			if err := txn.Consume(cons[:]); err != nil {
				t.Fatal(err)
			}
			if s.Battery(first).DeficitAt(2) == before {
				t.Fatalf("satellite %d: consumption left no deficit", first)
			}
			n := s.txn.undo.Len()
			if n < perTxn || n > perTxn*horizon {
				t.Fatalf("satellites %d..%d: undo log holds %d cells, want between %d and %d",
					first, first+perTxn-1, n, perTxn, perTxn*horizon)
			}
			largest = max(largest, n)
			txn.Rollback()
			if got := s.Battery(first).DeficitAt(2); got != before {
				t.Fatalf("satellite %d: deficit %v after rollback, want %v", first, got, before)
			}
			if got := s.txn.undo.Len(); got != 0 {
				t.Fatalf("undo log holds %d cells after rollback", got)
			}
		}
	}
	sweep()
	if got := testing.AllocsPerRun(1, sweep); got != 0 {
		t.Fatalf("a second sweep over %d satellites allocated %v times; the log should have stopped at its largest transaction (%d cells)",
			numSats, got, largest)
	}

	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTxnCycleDoesNotAllocate pins two promises: Begin stays inlinable,
// so the Txn lives on the caller's stack, and a warm undo log serves a
// whole Begin/Consume/Rollback cycle without touching the heap.
func TestTxnCycleDoesNotAllocate(t *testing.T) {
	s := newTestState(t, twoCitySites(), false)
	cons := []Consumption{{Sat: 0, Slot: 2, Joules: 5000}, {Sat: 1, Slot: 2, Joules: 5000}}
	cycle := func() {
		txn := s.Begin()
		if err := txn.Consume(cons); err != nil {
			t.Fatal(err)
		}
		txn.Rollback()
	}
	cycle() // grows the scratch
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("%v allocations per Begin/Consume/Rollback cycle, want 0", got)
	}
}

// TestHotspotTrackingAllocations pins what per-entity hot-spot tracking
// costs the heap per admission once the transaction buffers are warm: an
// accepted admission (blame reset, path reserved and consumed, commit,
// which feeds the level trackers) plus a rejected one (blocked link and
// depleted battery noted, trial rolled back, rejection attributed).
// Tracking off allocates nothing; tracking on allocates no more than
// hotspotAllocCeiling — also nothing, since the trackers are fixed-size
// arrays and the commit-time list reuses its buffer.
func TestHotspotTrackingAllocations(t *testing.T) {
	const hotspotAllocCeiling = 0
	for _, tc := range []struct {
		k       int
		ceiling float64
	}{{0, 0}, {32, hotspotAllocCeiling}} {
		s := newTestState(t, twoCitySites(), false)
		s.EnableHotspots(obs.New(), tc.k)
		slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
		v, err := NewView(s, slot, groundEP(0), groundEP(1), 1, hopCost)
		if err != nil {
			t.Fatal(err)
		}
		p, ok := graph.ShortestPath(v, v.SrcNode(), v.DstNode(), nil)
		if !ok {
			t.Fatal("no route")
		}
		cons := v.PathConsumptions(p)
		key := v.LinkKeyFor(p.Nodes[0], p.Nodes[1])
		admit := func() {
			s.BeginBlame()
			txn := s.Begin()
			if err := txn.ReservePath(v, p); err != nil {
				t.Fatal(err)
			}
			if err := txn.Consume(cons); err != nil {
				t.Fatal(err)
			}
			txn.Commit()

			s.BeginBlame()
			s.noteBlockedLink(key, 0.5)
			s.NoteDepletedSat(cons[0].Sat)
			txn = s.Begin()
			if err := txn.Consume(cons); err != nil {
				t.Fatal(err)
			}
			txn.Rollback()
			s.AttributeRejection(false)
		}
		admit() // grows the transaction buffers
		if got := testing.AllocsPerRun(100, admit); got > tc.ceiling {
			t.Errorf("top-%d tracking: %v allocations per accepted+rejected admission, want at most %v", tc.k, got, tc.ceiling)
		}
		if tracked := s.hot.linkUtil.Snapshot().Total > 0 && s.hot.linkRejections.Snapshot().Total > 0; tracked != (tc.k > 0) {
			t.Errorf("top-%d tracking: trackers fed %v", tc.k, tracked)
		}
	}
}
