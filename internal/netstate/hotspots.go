package netstate

import (
	"strconv"

	"spacebooking/internal/obs"
)

// hotspots is the per-entity attribution state of one State: four
// bounded top-K trackers (hot links and batteries, by rejection count
// and by level) plus the per-request blame scratch the routing layer
// fills as it masks infeasible edges. Everything here runs under the
// state's single writer, one admission at a time, so blame capture is
// exact: the entity recorded for a rejection is the one the losing search
// actually hit, not a statistical guess.
type hotspots struct {
	enabled bool
	// linkRejections / batteryRejections are sum-mode trackers whose
	// totals reconcile exactly against the engine's aggregate
	// rejected_congested / rejected_depleted counters (see
	// AttributeRejection).
	linkRejections    *obs.TopK
	batteryRejections *obs.TopK
	// linkUtil / batteryDoD are max-mode level trackers fed at commit
	// time, so rolled-back trial state never pollutes them.
	linkUtil   *obs.TopK
	batteryDoD *obs.TopK

	// Per-request blame scratch, reset by BeginBlame. blameLink holds
	// the most-utilized link the request's searches found blocked;
	// blameSat the last satellite whose battery made an edge or a draw
	// infeasible.
	blameLink     LinkKey
	blameLinkUtil float64
	blameLinkSet  bool
	blameSat      int
	blameSatSet   bool
}

// dodPend is one committed energy draw awaiting depth-of-discharge
// observation: battery sat after the consumption at slot.
type dodPend struct {
	sat  int
	slot int
}

// Names of the four trackers EnableHotspots registers: their keys in a
// registry snapshot's topk section.
const (
	TrackerLinkRejections    = "netstate.hotspots.link_rejections"
	TrackerLinkUtil          = "netstate.hotspots.link_util"
	TrackerBatteryRejections = "energy.hotspots.battery_rejections"
	TrackerBatteryDoD        = "energy.hotspots.battery_dod"
)

// EnableHotspots attaches the per-entity top-K trackers, each bounded
// to k entries (k <= 0 disables). Like EnableTraceDetail this is
// opt-in and separate from SetObs: every admission then pays a few
// scalar stores on blocked edges and a short tracker scan per commit —
// nothing allocates. A nil registry is a no-op. Call before the run
// starts; the State is single-owner.
func (s *State) EnableHotspots(reg *obs.Registry, k int) {
	if reg == nil || k <= 0 {
		return
	}
	h := &s.hot
	h.enabled = true
	h.linkRejections = reg.TopK(TrackerLinkRejections, k, obs.TopKSum)
	h.linkUtil = reg.TopK(TrackerLinkUtil, k, obs.TopKMax)
	h.batteryRejections = reg.TopK(TrackerBatteryRejections, k, obs.TopKSum)
	h.batteryDoD = reg.TopK(TrackerBatteryDoD, k, obs.TopKMax)
	h.linkRejections.SetLabeler(linkLabel)
	h.linkUtil.SetLabeler(linkLabel)
	h.batteryRejections.SetLabeler(satLabel)
	h.batteryDoD.SetLabeler(satLabel)
}

// HotspotsEnabled reports whether per-entity attribution is live.
func (s *State) HotspotsEnabled() bool { return s.hot.enabled }

func linkLabel(key uint64) string {
	k := LinkKey(key)
	return strconv.Itoa(k.From()) + "->" + strconv.Itoa(k.To())
}

func satLabel(key uint64) string {
	return "sat" + strconv.FormatUint(key, 10)
}

// BeginBlame resets the per-request blame scratch. The engine calls it
// before handing a request to the algorithm; the routing and energy
// layers then record which entities blocked the request as they go.
func (s *State) BeginBlame() {
	h := &s.hot
	h.blameLinkSet = false
	h.blameSatSet = false
}

// noteBlockedLink records a capacity-infeasible edge the search hit,
// keeping the most-utilized one: when a request is later rejected for
// congestion, the fullest link it bounced off is the blamed entity.
func (s *State) noteBlockedLink(key LinkKey, util float64) {
	h := &s.hot
	if !h.enabled {
		return
	}
	if !h.blameLinkSet || util > h.blameLinkUtil {
		h.blameLink = key
		h.blameLinkUtil = util
		h.blameLinkSet = true
	}
}

// NoteDepletedSat records a satellite whose battery made an edge or a
// draw infeasible for the current request. The energy pricing layer
// calls it when a transit cost goes infinite; Txn.Consume calls it when
// a battery refuses a draw.
func (s *State) NoteDepletedSat(sat int) {
	h := &s.hot
	if !h.enabled {
		return
	}
	h.blameSat = sat
	h.blameSatSet = true
}

// AttributeRejection charges the current request's rejection to the
// blamed entity and reports which tracker was fed. energyBlame steers
// ties: a rejection the engine classified as energy-infeasible prefers
// the battery; anything else prefers the blocked link, falling back to
// the battery when only energy pricing blocked the search. At most one
// of (congested, depleted) is true per call, so the trackers' totals
// sum exactly to the engine's aggregate rejection counters. No-op
// (false, false) when tracking is disabled or nothing was blamed.
func (s *State) AttributeRejection(energyBlame bool) (congested, depleted bool) {
	h := &s.hot
	if !h.enabled {
		return false, false
	}
	if energyBlame && h.blameSatSet {
		h.batteryRejections.Add(uint64(h.blameSat), 1)
		return false, true
	}
	if h.blameLinkSet {
		h.linkRejections.Add(uint64(h.blameLink), 1)
		return true, false
	}
	if h.blameSatSet {
		h.batteryRejections.Add(uint64(h.blameSat), 1)
		return false, true
	}
	return false, false
}

// observeCommit feeds the level trackers from a just-committed
// transaction: post-commit utilization of every reserved link, and
// post-commit depth-of-discharge of every (battery, slot) the
// transaction drew from. Commit-time observation keeps rolled-back
// trial state out of the max trackers.
func (s *State) observeCommit() {
	h := &s.hot
	if !h.enabled {
		return
	}
	a := &s.txn
	for i := range a.linkUndo {
		r := &a.linkUndo[i]
		h.linkUtil.Observe(uint64(r.key), s.LinkUtilization(r.key, r.slot))
	}
	for _, d := range a.dod {
		h.batteryDoD.Observe(uint64(d.sat), s.batteries[d.sat].UtilizationAt(d.slot))
	}
}
