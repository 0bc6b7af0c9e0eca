package netstate

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spacebooking/internal/graph"
	"spacebooking/internal/obs"
)

// TestBuildViewErrors mirrors TestNewViewErrors: the flat builder must
// reject exactly the inputs the generic constructor rejects.
func TestBuildViewErrors(t *testing.T) {
	s := newTestState(t, twoCitySites())
	sc := NewSearchScratch()
	if _, err := sc.BuildView(nil, 0, groundEP(0), groundEP(1), 100, hopCost); err == nil {
		t.Error("nil state should error")
	}
	if _, err := sc.BuildView(s, 0, groundEP(0), groundEP(1), 100, nil); err == nil {
		t.Error("nil cost should error")
	}
	if _, err := sc.BuildView(s, 0, groundEP(0), groundEP(1), 0, hopCost); err == nil {
		t.Error("zero demand should error")
	}
	if _, err := sc.BuildView(s, -1, groundEP(0), groundEP(1), 100, hopCost); err == nil {
		t.Error("bad slot should error")
	}
	if _, err := sc.BuildView(s, 0, groundEP(9), groundEP(1), 100, hopCost); err == nil {
		t.Error("bad endpoint should error")
	}
}

// TestFlatViewMirrorsGenericView checks node numbering, link keys and
// per-edge prices against the generic View on a live slot, then runs
// the search on both representations and requires identical paths and
// consumption vectors. One scratch serves every comparison,
// so the test also covers epoch-stamped cache reuse across views. Each
// trial ends by committing its path at a rate that fills the USLs after
// two trials, so later trials compare utilization-dependent prices and
// masked edges read through the ledger's rows (flat) and through
// LinkKey access (generic).
func TestFlatViewMirrorsGenericView(t *testing.T) {
	s := newTestState(t, twoCitySites())
	slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
	sc := NewSearchScratch()

	transit := func(node int, in, out graph.EdgeClass) float64 {
		c := float64(node%5) * 0.25
		if in == graph.ClassUSL {
			c *= 2
		}
		return c
	}

	loadCost := func(_ LinkKey, _ graph.EdgeClass, _, utilization float64) float64 {
		return 1 + 100*utilization
	}
	for trial := 0; trial < 4; trial++ {
		demand := 100 * float64(trial+1)
		gv, err := NewView(s, slot, groundEP(0), groundEP(1), demand, loadCost)
		if err != nil {
			t.Fatal(err)
		}
		fv, err := sc.BuildView(s, slot, groundEP(0), groundEP(1), demand, loadCost)
		if err != nil {
			t.Fatal(err)
		}
		if fv.N() != gv.N() || fv.SrcNode() != gv.SrcNode() || fv.DstNode() != gv.DstNode() {
			t.Fatalf("shape mismatch: flat (%d,%d,%d) vs generic (%d,%d,%d)",
				fv.N(), fv.SrcNode(), fv.DstNode(), gv.N(), gv.SrcNode(), gv.DstNode())
		}
		if fv.Slot() != gv.Slot() || fv.DemandMbps() != gv.DemandMbps() {
			t.Fatalf("slot/demand mismatch")
		}

		// Every edge the generic view offers must appear in the flat walk
		// with the same key and price.
		for node := 0; node < gv.N(); node++ {
			type edgeSeen struct {
				to    int
				class graph.EdgeClass
				cost  float64
				key   LinkKey
			}
			var want []edgeSeen
			gv.VisitNeighbors(node, func(e graph.Edge) bool {
				want = append(want, edgeSeen{e.To, e.Class, e.Cost, gv.LinkKeyFor(node, e.To)})
				return true
			})
			var got []edgeSeen
			fv.VisitNeighbors(node, func(e graph.Edge) bool {
				got = append(got, edgeSeen{e.To, e.Class, e.Cost, fv.LinkKeyFor(node, e.To)})
				return true
			})
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d node %d: neighbor walks differ\ngeneric: %+v\nflat:    %+v",
					trial, node, want, got)
			}
		}

		for _, tr := range []graph.TransitCostFunc{nil, transit} {
			pw, okw := graph.ShortestPath(gv, gv.SrcNode(), gv.DstNode(), tr)
			pg, okg, pruned := fv.Search(tr, 0, 0, math.Inf(1))
			if pruned {
				t.Fatalf("trial %d: unbudgeted search reported pruning", trial)
			}
			if okw != okg || !reflect.DeepEqual(pw, pg) {
				t.Fatalf("trial %d: dijkstra diverged\ngeneric: ok=%v %+v\nflat:    ok=%v %+v",
					trial, okw, pw, okg, pg)
			}
			if okw {
				cw := gv.PathConsumptions(pw)
				cg := fv.AppendConsumptions(pg, nil)
				if !reflect.DeepEqual(cw, cg) {
					t.Fatalf("trial %d: consumptions diverged\ngeneric: %+v\nflat:    %+v", trial, cw, cg)
				}
			}
		}

		// Load the cheapest path for the next trial.
		lv, err := sc.BuildView(s, slot, groundEP(0), groundEP(1), 1900, loadCost)
		if err != nil {
			t.Fatal(err)
		}
		if p, ok, _ := lv.Search(nil, 0, 0, math.Inf(1)); ok {
			txn := s.Begin()
			if err := txn.ReservePath(lv, p); err != nil {
				t.Fatal(err)
			}
			txn.Commit()
		}
	}
	// At threshold 1 every link holding a reservation counts.
	if s.CongestedLinkCount(slot, 1) == 0 {
		t.Fatal("no trial ran on a loaded ledger")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFlatSearchBudgetPruning pins the pruning contract on a live view:
// with a budget below the true path cost the search must report
// pruned=true and find nothing better, and with the budget exactly at
// the path cost it must return the same path as the unbudgeted search.
func TestFlatSearchBudgetPruning(t *testing.T) {
	s := newTestState(t, twoCitySites())
	slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
	sc := NewSearchScratch()
	fv, err := sc.BuildView(s, slot, groundEP(0), groundEP(1), 100, hopCost)
	if err != nil {
		t.Fatal(err)
	}
	free, ok, _ := fv.Search(nil, 0, 0, math.Inf(1))
	if !ok {
		t.Fatal("no baseline path")
	}
	// With the budget exactly at the path cost the optimal path must
	// survive.
	if p, ok, _ := fv.Search(nil, 0, 0, free.Cost); !ok || !reflect.DeepEqual(p, free) {
		t.Fatalf("budget == cost must keep the path (ok=%v)", ok)
	}
	if _, ok, pruned := fv.Search(nil, 0, 0, free.Cost/2); ok || !pruned {
		t.Fatalf("budget below cost must prune (ok=%v pruned=%v)", ok, pruned)
	}
	// budgetBase shifts the accumulated-price origin: an exhausted base
	// leaves no room for any edge.
	if _, ok, pruned := fv.Search(nil, 0, free.Cost, free.Cost); ok || !pruned {
		t.Fatalf("exhausted base must prune (ok=%v pruned=%v)", ok, pruned)
	}
}

// loadCost is a utilization-dependent cost function that, like CEAR's,
// ignores the link key; loadCostIdle is what it returns on an idle link.
func loadCost(_ LinkKey, _ graph.EdgeClass, _, utilization float64) float64 {
	return 1 + 100*utilization
}

var loadCostIdle = loadCost(0, graph.ClassISL, 0, 0)

// walkEdges lists every edge a view offers, node by node.
func walkEdges(n int, visit func(int, func(graph.Edge) bool)) []graph.Edge {
	var out []graph.Edge
	for node := 0; node < n; node++ {
		visit(node, func(e graph.Edge) bool {
			out = append(out, e)
			return true
		})
	}
	return out
}

// TestIdleISLCostNeedsDemandWithinCapacity covers the guard of the idle
// shortcut from both sides on one loaded slot. With the demand inside the
// ISL capacity a view that declared its idle cost offers exactly the
// edges and prices of the generic View while calling the cost function
// for loaded ISLs only; with the demand above capacity the shortcut is
// off — every ISL is masked and the blame scratch ends where the generic
// walk leaves it.
func TestIdleISLCostNeedsDemandWithinCapacity(t *testing.T) {
	s := newTestState(t, twoCitySites())
	s.EnableHotspots(obs.New(), 4)
	slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
	var loaded []float64
	for sat := 0; sat < s.numSats; sat += 3 {
		to := s.Provider().ISLNeighbors(sat)[sat%2]
		used := 100 * float64(1+sat%7)
		if err := s.ReserveLink(MakeLinkKey(sat, to), slot, used); err != nil {
			t.Fatal(err)
		}
		loaded = append(loaded, used)
	}
	sc := NewSearchScratch()
	for _, tc := range []struct {
		demand float64
		armed  bool
	}{
		{1, true},
		{1250, true},
		{s.islCapMbps, true},
		{s.islCapMbps * (1 + 1e-12), true},
		{s.islCapMbps * (1 + 1e-9), false},
		{2 * s.islCapMbps, false},
	} {
		gv, err := NewView(s, slot, groundEP(0), groundEP(1), tc.demand, loadCost)
		if err != nil {
			t.Fatal(err)
		}
		s.BeginBlame()
		want := walkEdges(gv.N(), gv.VisitNeighbors)
		wantBlame := s.hot

		islCalls := 0
		fv, err := sc.BuildView(s, slot, groundEP(0), groundEP(1), tc.demand,
			func(key LinkKey, class graph.EdgeClass, capacity, utilization float64) float64 {
				if class == graph.ClassISL {
					islCalls++
				}
				return loadCost(key, class, capacity, utilization)
			})
		if err != nil {
			t.Fatal(err)
		}
		fv.IdleISLCost = loadCostIdle
		s.BeginBlame()
		got := walkEdges(fv.N(), fv.VisitNeighbors)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("demand %v: the flat view's edges differ from the generic view's", tc.demand)
		}
		if s.hot.blameLinkSet != wantBlame.blameLinkSet || s.hot.blameLink != wantBlame.blameLink ||
			s.hot.blameLinkUtil != wantBlame.blameLinkUtil {
			t.Fatalf("demand %v: blamed link %v (util %v, set %v), generic walk blames %v (util %v, set %v)", tc.demand,
				s.hot.blameLink, s.hot.blameLinkUtil, s.hot.blameLinkSet,
				wantBlame.blameLink, wantBlame.blameLinkUtil, wantBlame.blameLinkSet)
		}
		if tc.armed {
			// Only loaded ISLs reach the cost function, and of those only
			// the ones the demand still fits on.
			priced := 0
			for _, used := range loaded {
				if used+tc.demand <= s.islCapMbps*(1+1e-12) {
					priced++
				}
			}
			if islCalls != priced {
				t.Fatalf("demand %v: cost function priced %d ISLs, want the %d loaded ones with room", tc.demand, islCalls, priced)
			}
			continue
		}
		if islCalls != 0 || !s.hot.blameLinkSet {
			t.Fatalf("demand %v exceeds ISL capacity: %d ISLs priced, blame set %v; want all masked and blamed",
				tc.demand, islCalls, s.hot.blameLinkSet)
		}
		for _, e := range got {
			if e.Class == graph.ClassISL && !math.IsInf(e.Cost, 1) {
				t.Fatalf("demand %v exceeds ISL capacity but an ISL is offered at %v", tc.demand, e.Cost)
			}
		}
	}
}

// TestIdleShortcutNeverFiresOnSaturatedSlot is the bypass case: in a slot
// where every ISL holds a reservation, declaring the idle cost changes
// nothing — the cost function is called once per distinct ISL the search
// relaxes, exactly as often as without the declaration, and the path is
// the generic search's. On the same endpoints one slot later, where
// nothing is reserved, the declared view never calls it for an ISL.
func TestIdleShortcutNeverFiresOnSaturatedSlot(t *testing.T) {
	s := newTestState(t, twoCitySites())
	slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
	for sat := 0; sat < s.numSats; sat++ {
		for i, to := range s.Provider().ISLNeighbors(sat) {
			if err := s.ReserveLink(MakeLinkKey(sat, to), slot, 50*float64(1+(sat+i)%9)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sc := NewSearchScratch()
	search := func(slot int, declare bool) (graph.Path, int, int) {
		calls := 0
		distinct := map[LinkKey]bool{}
		fv, err := sc.BuildView(s, slot, groundEP(0), groundEP(1), 500,
			func(key LinkKey, class graph.EdgeClass, capacity, utilization float64) float64 {
				if class == graph.ClassISL {
					calls++
					distinct[key] = true
				}
				return loadCost(key, class, capacity, utilization)
			})
		if err != nil {
			t.Fatal(err)
		}
		if declare {
			fv.IdleISLCost = loadCostIdle
		}
		p, ok, _ := fv.Search(nil, 0, 0, math.Inf(1))
		if !ok {
			t.Fatalf("slot %d: no path", slot)
		}
		return p, calls, len(distinct)
	}
	plain, plainCalls, _ := search(slot, false)
	declared, calls, distinct := search(slot, true)
	if calls == 0 || calls != distinct || calls != plainCalls {
		t.Fatalf("saturated slot: %d cost-function calls for %d distinct ISLs; %d without the declaration", calls, distinct, plainCalls)
	}
	gv, err := NewView(s, slot, groundEP(0), groundEP(1), 500, loadCost)
	if err != nil {
		t.Fatal(err)
	}
	generic, ok := graph.ShortestPath(gv, gv.SrcNode(), gv.DstNode(), nil)
	if !ok || !reflect.DeepEqual(generic, declared) || !reflect.DeepEqual(generic, plain) {
		t.Fatalf("saturated slot: paths diverge\ngeneric:  %+v\ndeclared: %+v\nplain:    %+v", generic, declared, plain)
	}

	idle := findRoutableSlotFrom(t, s, groundEP(0), groundEP(1), slot+1)
	plain, plainCalls, _ = search(idle, false)
	declared, calls, _ = search(idle, true)
	if calls != 0 || plainCalls == 0 || !reflect.DeepEqual(plain, declared) {
		t.Fatalf("idle slot: %d ISL cost-function calls with the declaration, %d without; paths equal: %v",
			calls, plainCalls, reflect.DeepEqual(plain, declared))
	}
}

// TestTransitAskedOncePerPoppedState runs a transit function that counts
// its calls and memoises nothing through both Dijkstra implementations. A
// state is settled at most once, so no (node, in, out) may be asked twice;
// a satellite whose four ISLs are full is settled but never asked for its
// ISL-out cost; and the two searches ask exactly the same questions.
func TestTransitAskedOncePerPoppedState(t *testing.T) {
	s := newTestState(t, twoCitySites())
	slot := findRoutableSlot(t, s, groundEP(0), groundEP(1))
	srcVis, err := s.Provider().VisibleSats(groundEP(0), slot)
	if err != nil {
		t.Fatal(err)
	}
	// Fill every ISL out of one neighbour of the first satellite the
	// source sees, and one ISL out of another: a fully masked state and a
	// partly masked one, both settled long before the destination.
	near := s.Provider().ISLNeighbors(srcVis[0])
	walled := near[0]
	for _, to := range s.Provider().ISLNeighbors(walled) {
		if err := s.ReserveLink(MakeLinkKey(walled, to), slot, s.islCapMbps); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ReserveLink(MakeLinkKey(near[1], s.Provider().ISLNeighbors(near[1])[0]), slot, s.islCapMbps); err != nil {
		t.Fatal(err)
	}

	type ask struct {
		node    int
		in, out graph.EdgeClass
	}
	counting := func(asked map[ask]int) graph.TransitCostFunc {
		return func(node int, in, out graph.EdgeClass) float64 {
			asked[ask{node, in, out}]++
			return float64(node%5) * 0.25
		}
	}

	flatAsked := map[ask]int{}
	fv, err := NewSearchScratch().BuildView(s, slot, groundEP(0), groundEP(1), 500, hopCost)
	if err != nil {
		t.Fatal(err)
	}
	settled := map[int]bool{}
	fv.LookAhead = func(sat int, _ graph.EdgeClass, _ int, _ graph.EdgeClass) { settled[sat] = true }
	flatPath, ok, _ := fv.Search(counting(flatAsked), 0, 0, math.Inf(1))
	if !ok {
		t.Fatal("flat search found no path")
	}

	genericAsked := map[ask]int{}
	gv, err := NewView(s, slot, groundEP(0), groundEP(1), 500, hopCost)
	if err != nil {
		t.Fatal(err)
	}
	genericPath, ok := graph.ShortestPath(gv, gv.SrcNode(), gv.DstNode(), counting(genericAsked))
	if !ok || !reflect.DeepEqual(genericPath, flatPath) {
		t.Fatalf("paths diverge\ngeneric: %+v\nflat:    %+v", genericPath, flatPath)
	}

	if len(flatAsked) == 0 || !reflect.DeepEqual(flatAsked, genericAsked) {
		t.Fatalf("the searches asked different questions: flat %d distinct, generic %d", len(flatAsked), len(genericAsked))
	}
	for a, n := range flatAsked {
		if n != 1 {
			t.Fatalf("transit(%d, %d, %d) asked %d times", a.node, a.in, a.out, n)
		}
	}
	if !settled[walled] {
		t.Fatalf("satellite %d was never settled; the masked case is vacuous", walled)
	}
	for a := range flatAsked {
		if a.node == walled && a.out == graph.ClassISL {
			t.Fatalf("satellite %d has no usable ISL yet was asked for its ISL-out cost", walled)
		}
	}
}

// swapHeap is graph's searchHeap over flatItems, copied here as the
// reference flatHeap promises to agree with byte for byte: push `<=`, pop
// right-child `<`, a swap per level.
type swapHeap struct{ items []flatItem }

func (h *swapHeap) push(it flatItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].dist <= h.items[i].dist {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *swapHeap) pop() flatItem {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && h.items[r].dist < h.items[l].dist {
			child = r
		}
		if h.items[i].dist <= h.items[child].dist {
			break
		}
		h.items[i], h.items[child] = h.items[child], h.items[i]
		i = child
	}
	return top
}

// TestFlatHeapPopsInSwapSiftOrder drives flatHeap and the reference
// through the same seeded push/pop sequences, with keys drawn from a
// handful of values so that most comparisons are ties, and requires the
// same item out of every pop and the same layout after every operation:
// equal-cost states must keep settling in the order the generic search
// settles them, whatever sift flatHeap uses (since PR 22 a hole-based one).
func TestFlatHeapPopsInSwapSiftOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got flatHeap
		var want swapHeap
		distinct := 1 + rng.Intn(6)
		for op := 0; op < 4000; op++ {
			if len(want.items) == 0 || rng.Intn(100) < 55 {
				it := flatItem{state: int32(op), dist: float64(rng.Intn(distinct))}
				got.push(it)
				want.push(it)
			} else if g, w := got.pop(), want.pop(); g != w {
				t.Fatalf("seed %d op %d: popped %+v, the swap sift pops %+v", seed, op, g, w)
			}
			if len(got.items) != len(want.items) {
				t.Fatalf("seed %d op %d: %d items, the reference holds %d", seed, op, len(got.items), len(want.items))
			}
			for i, it := range want.items {
				if got.items[i] != it {
					t.Fatalf("seed %d op %d: heap layouts diverge at index %d", seed, op, i)
				}
			}
		}
		for len(want.items) > 0 {
			if g, w := got.pop(), want.pop(); g != w {
				t.Fatalf("seed %d drain: popped %+v, the swap sift pops %+v", seed, g, w)
			}
		}
		if len(got.items) != 0 {
			t.Fatalf("seed %d: %d items left after the reference drained", seed, len(got.items))
		}
	}
}

// heapScript is the byte form of a push/pop sequence: an odd byte pops
// (when there is something to pop), an even one pushes with one of four
// keys taken from its next two bits, so most comparisons are ties.
func heapScript(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	script := make([]byte, n)
	for i := range script {
		if rng.Intn(100) < 55 {
			script[i] = byte(rng.Intn(4)) << 1
		} else {
			script[i] = 1
		}
	}
	return script
}

// FuzzFlatHeap is TestFlatHeapPopsInSwapSiftOrder with the sequence in
// the fuzzer's hands: every pop must return the swap sift's item and
// every operation leave the swap sift's layout.
func FuzzFlatHeap(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(heapScript(seed, 300))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		var got flatHeap
		var want swapHeap
		for op, b := range script {
			if b&1 == 0 {
				it := flatItem{state: int32(op), dist: float64(b >> 1 & 3)}
				got.push(it)
				want.push(it)
			} else if len(want.items) > 0 {
				if g, w := got.pop(), want.pop(); g != w {
					t.Fatalf("op %d: popped %+v, the swap sift pops %+v", op, g, w)
				}
			}
			if len(got.items) != len(want.items) {
				t.Fatalf("op %d: %d items, the reference holds %d", op, len(got.items), len(want.items))
			}
			for i, it := range want.items {
				if got.items[i] != it {
					t.Fatalf("op %d: heap layouts diverge at index %d", op, i)
				}
			}
		}
	})
}
