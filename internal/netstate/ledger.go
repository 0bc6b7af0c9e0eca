package netstate

import (
	"fmt"
	"math"
	"slices"
)

// The link ledger: every bandwidth reservation of a State, slot-major.
//
// ISLs are the static +Grid fabric, so each already has a dense id — its
// edge index i in the provider's CSR (topology.CSR.To[i]). isl[slot] is one
// row of reserved Mbps indexed by that id, allocated on the first
// reservation in the slot; a nil row reads as zero. A search at slot t
// therefore reads one contiguous row by the edge index it is iterating
// anyway — no hash, no per-link object. USLs exist only while a pass
// lasts (a few slots out of the horizon), so they are cells of a
// per-slot map keyed by LinkKey that hold non-zero reservations only: a
// cell rolled back to zero is deleted, an absent cell reads as zero.
//
// Generic LinkKey access (View, ReserveLink, LinkUtilization) reaches
// the same rows by scanning the transmitting satellite's <= 4 CSR
// neighbours for the receiving one.

// islEdge returns the CSR edge index of the ISL from -> to, or -1 when
// the two satellites are not +Grid neighbours.
func (s *State) islEdge(from, to int) int {
	for i, end := int(s.csr.Offsets[from]), int(s.csr.Offsets[from+1]); i < end; i++ {
		if int(s.csr.To[i]) == to {
			return i
		}
	}
	return -1
}

// isISL reports whether the key joins two satellites. Anything else is a
// USL (one endpoint is a ground site or an EO satellite).
func (s *State) isISL(key LinkKey) bool {
	from, to := key.From(), key.To()
	return from >= 0 && from < s.numSats && to < s.numSats
}

// linkCapacity derives a link's capacity from its endpoints: ISL between
// two satellites, USL otherwise.
func (s *State) linkCapacity(key LinkKey) float64 {
	if s.isISL(key) {
		return s.islCapMbps
	}
	return s.uslCapMbps
}

// LinkUsedMbps returns the bandwidth already reserved on a link in a slot.
func (s *State) LinkUsedMbps(key LinkKey, slot int) float64 {
	if slot < 0 || slot >= len(s.isl) {
		return 0
	}
	if !s.isISL(key) {
		return s.usl[slot][key]
	}
	row := s.isl[slot]
	if row == nil {
		return 0
	}
	e := s.islEdge(key.From(), key.To())
	if e < 0 {
		return 0
	}
	return row[e]
}

// LinkUtilization returns λ_e(T) per Eq. (8): reserved bandwidth divided
// by capacity, in [0, 1] for feasible states.
func (s *State) LinkUtilization(key LinkKey, slot int) float64 {
	return s.LinkUsedMbps(key, slot) / s.linkCapacity(key)
}

// ReserveLink reserves rateMbps on a link for one slot and returns what
// the cell held before, the value restoreLink writes back on rollback. It
// fails without side effects if the link would be over-subscribed, or if
// the key names two satellites the +Grid fabric does not connect.
func (s *State) ReserveLink(key LinkKey, slot int, rateMbps float64) (float64, error) {
	if rateMbps <= 0 || math.IsNaN(rateMbps) {
		return 0, fmt.Errorf("netstate: invalid reservation rate %v", rateMbps)
	}
	if slot < 0 || slot >= len(s.isl) {
		return 0, fmt.Errorf("netstate: slot %d outside horizon [0,%d)", slot, len(s.isl))
	}
	if !s.isISL(key) {
		used := s.usl[slot][key]
		if used+rateMbps > s.uslCapMbps*(1+1e-12) {
			return 0, overSubscribed(key, slot, used, rateMbps, s.uslCapMbps)
		}
		if s.usl[slot] == nil {
			s.usl[slot] = make(map[LinkKey]float64)
		}
		s.usl[slot][key] = used + rateMbps
		s.instr.linkReserves.Inc()
		return used, nil
	}
	e := s.islEdge(key.From(), key.To())
	if e < 0 {
		return 0, fmt.Errorf("netstate: no ISL %d->%d in the +Grid fabric", key.From(), key.To())
	}
	row := s.isl[slot]
	used := 0.0
	if row != nil {
		used = row[e]
	}
	if used+rateMbps > s.islCapMbps*(1+1e-12) {
		return 0, overSubscribed(key, slot, used, rateMbps, s.islCapMbps)
	}
	if row == nil {
		row = make([]float64, s.csr.NumEdges())
		s.isl[slot] = row
	}
	row[e] = used + rateMbps
	s.instr.linkReserves.Inc()
	return used, nil
}

func overSubscribed(key LinkKey, slot int, used, rateMbps, capacity float64) error {
	return fmt.Errorf("netstate: link %d->%d over-subscribed at slot %d: %v + %v > %v",
		key.From(), key.To(), slot, used, rateMbps, capacity)
}

// restoreLink writes back what a cell held before a ReserveLink that
// returned was: the ISL row cell directly, the USL map entry — deleted
// again when the cell held nothing. Only the transaction's rollback calls
// it, newest reservation first, on cells ReserveLink wrote.
func (s *State) restoreLink(key LinkKey, slot int, was float64) {
	switch {
	case s.isISL(key):
		s.isl[slot][s.islEdge(key.From(), key.To())] = was
	case was == 0:
		delete(s.usl[slot], key)
	default:
		s.usl[slot][key] = was
	}
}

// CongestedLinkCount counts links whose remaining bandwidth in the slot
// is below thresholdFrac of capacity — the paper's "congestion link
// number" metric with thresholdFrac = 0.1. A link with no reservation in
// the slot (never reserved, or fully rolled back) never counts.
func (s *State) CongestedLinkCount(slot int, thresholdFrac float64) int {
	if slot < 0 || slot >= len(s.isl) {
		return 0
	}
	count := 0
	if row := s.isl[slot]; row != nil {
		limit := thresholdFrac * s.islCapMbps
		for _, used := range row {
			if used != 0 && s.islCapMbps-used < limit {
				count++
			}
		}
	}
	limit := thresholdFrac * s.uslCapMbps
	for _, used := range s.usl[slot] {
		if s.uslCapMbps-used < limit {
			count++
		}
	}
	return count
}

// checkLedger is the link half of CheckInvariants. It walks each slot's
// USL cells in key order, so the fault it names is the same on every call.
func (s *State) checkLedger() error {
	islLimit := s.islCapMbps * (1 + 1e-12)
	uslLimit := s.uslCapMbps * (1 + 1e-12)
	for slot, row := range s.isl {
		for e, used := range row {
			if used < 0 || used > islLimit || math.IsNaN(used) {
				return fmt.Errorf("netstate: ISL edge %d holds %v Mbps at slot %d, outside [0, %v]", e, used, slot, s.islCapMbps)
			}
		}
		cells := s.usl[slot]
		keys := make([]LinkKey, 0, len(cells))
		for key := range cells {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		for _, key := range keys {
			if used := cells[key]; used <= 0 || used > uslLimit || math.IsNaN(used) {
				return fmt.Errorf("netstate: USL %d->%d holds %v Mbps at slot %d, outside (0, %v]",
					key.From(), key.To(), used, slot, s.uslCapMbps)
			}
		}
	}
	return nil
}
