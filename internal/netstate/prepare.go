package netstate

import (
	"errors"
	"fmt"

	"spacebooking/internal/energy"
)

// Two-phase commit over the reservation ledgers.
//
// The single-phase path (Begin → reserve/consume → Commit | Rollback)
// applies deltas as it goes and either keeps them or restores
// snapshots. Prepare splits the decision point in two: it pins the
// transaction's exact link-capacity and battery-energy deltas — they
// stay applied, so concurrent admissions on the same state price
// against them — and detaches them from the transaction arena into a
// Prepared held in the state's prepare ledger. Commit keeps the deltas
// (and performs the commit-time hot-spot observation, exactly like the
// single-phase Commit); Abort releases them.
//
// Abort is byte-identical to Rollback when the prepared batteries are
// untouched since Prepare (snapshot restore, guarded by the battery's
// mutation stamp). When another reservation committed on the same
// battery in between — the cluster's cross-shard interleavings — Abort
// refunds the pinned consumption steps instead, releasing exactly the
// solar/deficit this transaction claimed while preserving everyone
// else's.

// ErrPreparedLeak is wrapped by CheckPreparedDrained when prepared
// reservations are still outstanding at the end of a run — a
// coordinator failed to settle a two-phase booking.
var ErrPreparedLeak = errors.New("netstate: prepared reservations outstanding")

// CommitInterceptor, when installed, receives every Txn.Commit as a
// Prepared instead of a direct commit. The interceptor owns the
// Prepared's lifecycle: it must call Commit or Abort (possibly after
// coordinating with other states) and its error is surfaced from
// Txn.Commit. The cluster's cross-shard coordinator is the one
// interceptor in the tree.
type CommitInterceptor func(p *Prepared) error

// SetCommitInterceptor installs (or with nil, removes) the commit
// interceptor, enabling two-phase mode as a side effect. Call before
// the run starts; the State is single-owner.
func (s *State) SetCommitInterceptor(fn CommitInterceptor) {
	s.intercept = fn
	if fn != nil {
		s.EnableTwoPhase()
	}
}

// EnableTwoPhase turns on consumption-step recording, the prerequisite
// for Txn.Prepare. The recorded steps change no ledger arithmetic —
// commits stay byte-identical — but cost a few appends per admission,
// so the mode is opt-in and the batch simulator never pays it.
func (s *State) EnableTwoPhase() { s.twoPhase = true }

// TwoPhaseEnabled reports whether Prepare is available on this state.
func (s *State) TwoPhaseEnabled() bool { return s.twoPhase }

// prepareLedger tracks outstanding Prepared reservations by id.
type prepareLedger struct {
	byID   map[uint64]*Prepared
	nextID uint64
}

func (l *prepareLedger) add(p *Prepared) {
	if l.byID == nil {
		l.byID = make(map[uint64]*Prepared)
	}
	l.byID[p.id] = p
}

// Prepared is a pinned-but-undecided reservation: the exact link and
// battery deltas of one transaction, held applied until Commit or
// Abort. Like the State it belongs to, it is single-writer.
type Prepared struct {
	state *State
	id    uint64
	links []linkReservation
	cons  []consRecord
	steps []energy.ConsumeStep
	dod   []dodPend
	// Per touched battery: the pre-transaction snapshot (ownership moved
	// out of the txn arena) and the battery's stamp at Prepare time.
	touched []int
	snaps   []*energy.Battery
	stamps  []uint64
	done    bool
}

// Prepare pins the open transaction's deltas and detaches them into a
// Prepared registered in the state's prepare ledger. The transaction is
// finished afterwards (like Commit/Rollback); the returned Prepared is
// the sole handle on the pinned resources. Requires two-phase mode.
func (t *Txn) Prepare() (*Prepared, error) {
	if t.done {
		return nil, fmt.Errorf("netstate: transaction already finished")
	}
	s := t.state
	if !s.twoPhase {
		return nil, fmt.Errorf("netstate: Prepare requires two-phase mode (EnableTwoPhase)")
	}
	t.done = true
	a := &s.txn
	s.prep.nextID++
	p := &Prepared{state: s, id: s.prep.nextID}
	p.links = append(p.links, a.linkUndo...)
	p.cons = append(p.cons, a.cons...)
	p.steps = append(p.steps, a.steps...)
	p.dod = append(p.dod, a.dod...)
	for i, sat := range a.touched {
		p.touched = append(p.touched, sat)
		// Move the snapshot out of the pool: the next transaction to
		// touch this many satellites re-clones, and the snapshot stays
		// frozen at this txn's pre-state.
		p.snaps = append(p.snaps, a.snaps[i])
		p.stamps = append(p.stamps, s.batteries[sat].Stamp())
		a.snaps[i] = nil
	}
	s.prep.add(p)
	s.instr.txnPrepares.Inc()
	return p, nil
}

// ID returns the prepare-ledger id of this reservation.
func (p *Prepared) ID() uint64 { return p.id }

// EachLink visits every pinned link reservation.
func (p *Prepared) EachLink(fn func(key LinkKey, slot int, rateMbps float64)) {
	for i := range p.links {
		r := &p.links[i]
		fn(r.key, r.slot, r.rate)
	}
}

// EachConsumption visits every pinned energy consumption, in the order
// it was applied (slot-ascending for the admission algorithms' per-slot
// loops, which is the order a replay must preserve).
func (p *Prepared) EachConsumption(fn func(c Consumption)) {
	for i := range p.cons {
		fn(p.cons[i].c)
	}
}

// Commit keeps the pinned deltas, counts the commit and performs the
// commit-time hot-spot observation — the exact tail of the single-phase
// Txn.Commit. Idempotent.
func (p *Prepared) Commit() {
	if p.done {
		return
	}
	p.done = true
	s := p.state
	delete(s.prep.byID, p.id)
	s.instr.txnCommits.Inc()
	s.observePrepared(p)
}

// Abort releases the pinned deltas: link reservations are subtracted
// (exactly Rollback's reversal) and each touched battery is restored
// from its pre-transaction snapshot when nothing else has mutated it
// since Prepare — bit-exact, the common case — or has this
// transaction's consumption steps refunded otherwise. Idempotent.
func (p *Prepared) Abort() {
	if p.done {
		return
	}
	p.done = true
	s := p.state
	delete(s.prep.byID, p.id)
	s.instr.txnRollbacks.Inc()
	for _, r := range p.links {
		s.unreserveLink(r.key, r.slot, r.rate)
	}
	for i, sat := range p.touched {
		if s.batteries[sat].Stamp() == p.stamps[i] && p.snaps[i] != nil {
			s.batteries[sat].CopyFrom(p.snaps[i])
		} else {
			for _, cr := range p.cons {
				if cr.c.Sat != sat {
					continue
				}
				for j := cr.stepTo - 1; j >= cr.stepFrom; j-- {
					s.batteries[sat].Refund(p.steps[j])
				}
			}
		}
	}
}

// PreparedOutstanding returns the number of prepared reservations not
// yet committed or aborted.
func (s *State) PreparedOutstanding() int { return len(s.prep.byID) }

// CheckPreparedDrained returns nil when the prepare ledger is empty,
// or an error wrapping ErrPreparedLeak naming the leak count. The
// engine checks it at Finish: tests fail loudly on a leak, the serving
// layer logs it and keeps the result.
func (s *State) CheckPreparedDrained() error {
	if n := len(s.prep.byID); n > 0 {
		return fmt.Errorf("%w: %d prepared reservation(s) never committed or aborted", ErrPreparedLeak, n)
	}
	return nil
}
