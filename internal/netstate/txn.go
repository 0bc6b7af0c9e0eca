package netstate

import (
	"fmt"
	"time"

	"spacebooking/internal/energy"
	"spacebooking/internal/graph"
	"spacebooking/internal/obs"
)

// SlotView is the part of a per-slot routing view the transaction layer
// needs to reserve a path's bandwidth. Both the generic *View and the
// fast path's *FlatView implement it.
type SlotView interface {
	LinkKeyFor(from, to int) LinkKey
	Slot() int
	DemandMbps() float64
}

var (
	_ SlotView = (*View)(nil)
	_ SlotView = (*FlatView)(nil)
)

// Txn is an undo log over a State, enabling commit-as-you-go request
// admission: an algorithm reserves bandwidth and consumes energy slot by
// slot — so each slot's path search sees the request's *own* earlier
// consumption and can route around satellites it has already loaded —
// and rolls everything back if a later slot proves unroutable or the
// total price exceeds the valuation.
//
// The undo log lives in a State-owned arena reused across transactions
// (a State supports one open transaction at a time, see Begin), so
// admitting a request allocates no transaction-layer memory once the
// arena is warm.
type Txn struct {
	state *State
	done  bool
}

type linkReservation struct {
	key  LinkKey
	slot int
	rate float64
}

// txnScratch is the State-owned working memory of the single open
// transaction: the link-undo log and the battery-undo log. The latter
// holds the cells the transaction's consumptions wrote, not whole
// batteries, so it grows to the largest transaction's writes.
type txnScratch struct {
	linkUndo []linkReservation
	undo     energy.Undo
	// dod records the (battery, slot) pairs the open transaction drew
	// from, for commit-time depth-of-discharge observation when hot-spot
	// tracking is enabled. Reused like the undo logs.
	dod []dodPend
}

// Begin starts a transaction, reusing every buffer earlier ones grew. A
// State supports any number of sequential transactions; interleaving two
// open transactions on one State is a caller bug (and always was — the
// shared undo arena just depends on it). Begin must stay within the
// inlining budget: inlined at the admission call sites, the returned Txn
// is stack-allocated (TestTxnCycleDoesNotAllocate fails otherwise).
func (s *State) Begin() *Txn {
	a := &s.txn
	a.linkUndo = a.linkUndo[:0]
	a.undo.Reset()
	a.dod = a.dod[:0]
	return &Txn{state: s}
}

// ReservePath reserves the view's demand on every link of the path in
// the view's slot, recording the reservations for rollback.
func (t *Txn) ReservePath(v SlotView, p graph.Path) error {
	if t.done {
		return fmt.Errorf("netstate: transaction already finished")
	}
	if c := t.state.instr.commitNanos; c != nil {
		defer commitTimer(c, time.Now())
	}
	a := &t.state.txn
	for i := 0; i < len(p.Nodes)-1; i++ {
		key := v.LinkKeyFor(p.Nodes[i], p.Nodes[i+1])
		if err := t.state.ReserveLink(key, v.Slot(), v.DemandMbps()); err != nil {
			return err
		}
		a.linkUndo = append(a.linkUndo, linkReservation{key: key, slot: v.Slot(), rate: v.DemandMbps()})
	}
	return nil
}

// Consume applies energy consumptions, logging each cell it writes. On
// error the failed battery is left untouched (Consume is atomic per
// battery); previously applied consumptions remain until Rollback.
func (t *Txn) Consume(consumptions []Consumption) error {
	if t.done {
		return fmt.Errorf("netstate: transaction already finished")
	}
	if c := t.state.instr.commitNanos; c != nil {
		defer commitTimer(c, time.Now())
	}
	a := &t.state.txn
	for _, c := range consumptions {
		if err := a.undo.Consume(t.state.batteries[c.Sat], c.Slot, c.Joules); err != nil {
			return fmt.Errorf("netstate: satellite %d: %w", c.Sat, err)
		}
		if t.state.hot.enabled {
			a.dod = append(a.dod, dodPend{sat: c.Sat, slot: c.Slot})
		}
	}
	return nil
}

// Rollback undoes every reservation and restores every touched battery
// cell, newest write first. Safe to call after a partial failure;
// idempotent.
func (t *Txn) Rollback() {
	if t.done {
		return
	}
	t.done = true
	t.state.instr.txnRollbacks.Inc()
	a := &t.state.txn
	for _, r := range a.linkUndo {
		t.state.unreserveLink(r.key, r.slot, r.rate)
	}
	a.undo.Rollback()
}

// Commit finalises the transaction, dropping the undo log. With
// hot-spot tracking enabled it also feeds the level trackers from the
// committed reservations (post-commit link utilization and battery
// depth-of-discharge) — observation happens here, not during trials,
// so rolled-back state never reaches the trackers. Idempotent.
func (t *Txn) Commit() {
	if t.done {
		return
	}
	t.done = true
	t.state.instr.txnCommits.Inc()
	t.state.observeCommit()
}

// commitTimer accumulates elapsed commit-path wall time; the deferred
// form `defer commitTimer(c, time.Now())` captures the start at the
// defer statement and charges the counter at return.
func commitTimer(c *obs.Counter, t0 time.Time) {
	c.Add(time.Since(t0).Nanoseconds())
}
