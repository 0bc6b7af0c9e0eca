package sim

import (
	"fmt"
	"time"

	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
	"spacebooking/internal/router"
	"spacebooking/internal/topology"
	"spacebooking/internal/trace"
	"spacebooking/internal/workload"
)

// Engine is the resident admission engine shared by the batch simulator
// (Run) and the online booking server (internal/server): one algorithm,
// one mutable resource state, requests admitted one at a time in
// arrival-slot order. Factoring it out of Run guarantees the two paths
// cannot fork — a request stream produces identical decisions, prices
// and committed state whether it is replayed by Run or served online.
//
// An Engine is single-writer: Admit and Finish must be called from one
// goroutine (the server funnels its batches onto a dedicated engine
// goroutine for exactly this reason). Arrival slots must be
// non-decreasing, mirroring the paper's online model.
type Engine struct {
	prov    *topology.Provider
	rc      RunConfig
	alg     router.Algorithm
	state   *netstate.State
	horizon int

	res         *Result
	arrivedVal  []float64
	acceptedVal []float64

	totalHops      int
	totalSlotPaths int
	totalLatency   float64

	// Per-slot observability accumulators (see the flush logic in Run
	// before the refactor): one sample per horizon slot on every series,
	// request-free gap slots included.
	sampler      *obs.Sampler
	ctrTotal     *obs.Counter
	ctrAccepted  *obs.Counter
	histSlotTime *obs.Histogram
	tsAccepted   *obs.Series
	tsRejected   *obs.Series
	tsRevenue    *obs.Series
	tsWall       *obs.Series
	slotStart    time.Time
	curSlot      int
	slotAccepted int64
	slotRejected int64

	// Hot-spot attribution (nil / false unless RunConfig.HotspotK > 0):
	// acceptance/rejection trackers keyed by source cell, plus the
	// aggregate rejection counters the per-entity trackers reconcile
	// against exactly (see Admit's rejection branch).
	hotEnabled      bool
	hotSrcAccepted  *obs.TopK
	hotSrcRejected  *obs.TopK
	ctrRejCongested *obs.Counter
	ctrRejDepleted  *obs.Counter

	admSpan    obs.Span
	admStarted bool
	finished   bool
}

// Names of the two source-cell trackers NewEngine registers when
// RunConfig.HotspotK > 0: their keys in a registry snapshot's topk
// section.
const (
	TrackerSrcAccepted = "sim.hotspots.src_accepted"
	TrackerSrcRejected = "sim.hotspots.src_rejected"
)

// NewEngine builds the algorithm and its backing state and prepares the
// admission accumulators. The RunConfig's Workload is used only for
// algorithm configuration (e.g. the adaptive predictor's arrival rate)
// and trace metadata — the engine never generates requests itself.
func NewEngine(prov *topology.Provider, rc RunConfig) (*Engine, error) {
	if prov == nil {
		return nil, fmt.Errorf("sim: nil provider")
	}
	buildSpan := rc.Obs.StartPhase("state_build")
	alg, state, err := buildAlgorithm(prov, rc)
	buildSpan.End()
	if err != nil {
		return nil, err
	}
	horizon := prov.Horizon()
	e := &Engine{
		prov:    prov,
		rc:      rc,
		alg:     alg,
		state:   state,
		horizon: horizon,
		res: &Result{
			Algorithm:  alg.Name(),
			Rejections: make(map[string]int),
		},
		arrivedVal:  make([]float64, horizon),
		acceptedVal: make([]float64, horizon),
		curSlot:     -1,
	}
	e.sampler = rc.Obs.Sampler(horizon)
	e.ctrTotal = rc.Obs.Counter("sim.requests.total")
	e.ctrAccepted = rc.Obs.Counter("sim.requests.accepted")
	if rc.HotspotK > 0 && rc.Obs != nil {
		state.EnableHotspots(rc.Obs, rc.HotspotK)
		e.hotEnabled = state.HotspotsEnabled()
		e.hotSrcAccepted = rc.Obs.TopK(TrackerSrcAccepted, rc.HotspotK, obs.TopKSum)
		e.hotSrcRejected = rc.Obs.TopK(TrackerSrcRejected, rc.HotspotK, obs.TopKSum)
		e.hotSrcAccepted.SetLabeler(srcCellLabel)
		e.hotSrcRejected.SetLabeler(srcCellLabel)
		e.ctrRejCongested = rc.Obs.Counter("sim.requests.rejected_congested")
		e.ctrRejDepleted = rc.Obs.Counter("sim.requests.rejected_depleted")
	}
	e.histSlotTime = rc.Obs.Histogram("sim.slot_seconds", nil)
	e.tsAccepted = e.sampler.Series("slot.accepted")
	e.tsRejected = e.sampler.Series("slot.rejected")
	e.tsRevenue = e.sampler.Series("slot.revenue_cum")
	e.tsWall = e.sampler.Series("slot.wall_seconds")

	if rc.Trace != nil {
		if err := rc.Trace.Emit(trace.Record{
			Kind:      trace.KindRunInfo,
			Algorithm: alg.Name(),
			Rate:      rc.Workload.ArrivalRatePerSlot,
			Seed:      rc.Workload.Seed,
			Spec:      rc.SpecName,
		}); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	return e, nil
}

// Algorithm returns the display name of the engine's algorithm.
func (e *Engine) Algorithm() string { return e.alg.Name() }

// EnableTraceDetail attaches the sub-phase wall-time counters (search,
// pricing and commit nanoseconds) to the engine's state so a serving
// layer can read per-request deltas around Admit. No-op without an
// observed RunConfig. Must be called before admissions start: the
// handles are plain fields of the single-writer state.
func (e *Engine) EnableTraceDetail() { e.state.EnableTraceDetail(e.rc.Obs) }

// State exposes the engine's resource state, for invariant checks and
// metric sweeps; the single-writer contract extends to everything done
// through it.
func (e *Engine) State() *netstate.State { return e.state }

// CurrentSlot returns the most recent arrival slot admitted (-1 before
// the first admission).
func (e *Engine) CurrentSlot() int { return e.curSlot }

// Total returns the number of requests admitted (accepted or rejected)
// so far.
func (e *Engine) Total() int { return e.res.TotalRequests }

// flushSlot emits one sample per series for a finished slot and rewinds
// the per-slot accumulators. Request-free gap slots flush with zero
// wall time and zero decision counts.
func (e *Engine) flushSlot(slot int, wallSec float64) {
	s := int64(slot)
	e.tsAccepted.Record(s, float64(e.slotAccepted))
	e.tsRejected.Record(s, float64(e.slotRejected))
	e.tsRevenue.Record(s, e.res.Revenue)
	e.tsWall.Record(s, wallSec)
	e.slotAccepted, e.slotRejected = 0, 0
}

// Admit processes one online request: it is priced, admitted or
// rejected irrevocably, and every accumulator (result metrics, trace,
// obs counters and per-slot series) is advanced. Errors indicate
// internal failures or protocol violations (out-of-horizon or
// out-of-order arrival slots), never rejections.
func (e *Engine) Admit(req workload.Request) (router.Decision, error) {
	if e.finished {
		return router.Decision{}, fmt.Errorf("sim: engine already finished")
	}
	if req.ArrivalSlot < 0 || req.ArrivalSlot >= e.horizon {
		return router.Decision{}, fmt.Errorf("sim: request %d arrival slot %d outside horizon [0,%d)",
			req.ID, req.ArrivalSlot, e.horizon)
	}
	if req.ArrivalSlot < e.curSlot {
		return router.Decision{}, fmt.Errorf("sim: request %d arrival slot %d precedes current slot %d (arrivals must be non-decreasing)",
			req.ID, req.ArrivalSlot, e.curSlot)
	}
	if e.rc.Obs != nil {
		if !e.admStarted {
			e.admStarted = true
			e.admSpan = e.rc.Obs.StartPhase("admission")
		}
		if req.ArrivalSlot != e.curSlot {
			now := time.Now()
			if e.curSlot >= 0 {
				wall := now.Sub(e.slotStart).Seconds()
				e.histSlotTime.Observe(wall)
				e.flushSlot(e.curSlot, wall)
			}
			for s := e.curSlot + 1; s < req.ArrivalSlot; s++ {
				e.flushSlot(s, 0)
			}
			e.slotStart = now
		}
	}
	e.curSlot = req.ArrivalSlot

	if e.hotEnabled {
		e.state.BeginBlame()
	}
	d, err := e.alg.Handle(req)
	if err != nil {
		return router.Decision{}, fmt.Errorf("sim: request %d: %w", req.ID, err)
	}
	if e.rc.Trace != nil {
		if err := e.rc.Trace.Emit(DecisionRecord(req, d, e.res.TotalRequests+1)); err != nil {
			return router.Decision{}, fmt.Errorf("sim: %w", err)
		}
	}
	e.ctrTotal.Inc()
	if req.Class != "" && e.rc.Obs != nil {
		e.rc.Obs.Counter("sim.class." + req.Class + ".total").Inc()
		if d.Accepted {
			e.rc.Obs.Counter("sim.class." + req.Class + ".accepted").Inc()
		}
	}
	e.res.TotalRequests++
	e.res.TotalValuation += req.Valuation
	e.arrivedVal[req.ArrivalSlot] += req.Valuation
	if d.Accepted {
		e.ctrAccepted.Inc()
		e.slotAccepted++
		e.res.Accepted++
		e.res.AcceptedValuation += req.Valuation
		e.res.Revenue += d.Price
		e.acceptedVal[req.ArrivalSlot] += req.Valuation
		e.totalHops += d.Plan.TotalHops()
		e.totalSlotPaths += len(d.Plan.Paths)
		if lat, err := router.PlanLatencyMs(e.prov, req, d.Plan); err == nil {
			e.totalLatency += lat
		}
		if e.hotEnabled {
			e.hotSrcAccepted.Add(srcCellKey(req.Src), 1)
		}
	} else {
		reason := ClassifyReason(d.Reason)
		if e.rc.Obs != nil {
			e.rc.Obs.Counter("sim.requests.rejected." + reason).Inc()
		}
		e.slotRejected++
		e.res.Rejections[reason]++
		if e.hotEnabled {
			e.hotSrcRejected.Add(srcCellKey(req.Src), 1)
			// AttributeRejection and these counters move in lockstep: the
			// per-entity tracker and the matching aggregate counter are
			// incremented for exactly the same rejections, so tracker
			// totals reconcile against the counters with no slack.
			congested, depleted := e.state.AttributeRejection(reason == "energy-infeasible")
			if congested {
				e.ctrRejCongested.Inc()
			}
			if depleted {
				e.ctrRejDepleted.Inc()
			}
		}
	}
	return d, nil
}

// DecisionRecord builds the one decision line that a batch trace and a
// spaced audit log both write: the request as the engine admitted it and
// the decision it got, with seq the engine's 1-based commit index (0 for a
// served booking the engine never saw). Engine.Admit emits it; the server
// adds only its serving fields. scenario.RequestsFromTrace inverts it.
func DecisionRecord(req workload.Request, d router.Decision, seq int) trace.Record {
	return trace.Record{
		Kind:      trace.KindDecision,
		RequestID: req.ID,
		Arrival:   req.ArrivalSlot,
		Start:     req.StartSlot,
		End:       req.EndSlot,
		RateMbps:  req.RateMbps,
		Valuation: req.Valuation,
		Accepted:  d.Accepted,
		Price:     d.Price,
		Reason:    d.Reason,
		TotalHops: d.Plan.TotalHops(),
		SrcKind:   req.Src.Kind.Name(),
		SrcIndex:  req.Src.Index,
		DstKind:   req.Dst.Kind.Name(),
		DstIndex:  req.Dst.Index,
		Class:     req.Class,
		Seq:       seq,
	}
}

// srcCellKey packs a request source endpoint (ground site or EO
// satellite) into a top-K tracker key.
func srcCellKey(src topology.Endpoint) uint64 {
	return uint64(src.Kind)<<32 | uint64(uint32(src.Index))
}

// srcCellLabel renders a source-cell key as "site<N>" or "eo<N>".
func srcCellLabel(key uint64) string {
	idx := int(uint32(key))
	if topology.EndpointKind(key>>32) == topology.EndpointSpace {
		return fmt.Sprintf("eo%d", idx)
	}
	return fmt.Sprintf("site%d", idx)
}

// Finish closes the admission stream: trailing per-slot samples are
// flushed, the final reservation state is swept for the Fig. 7/8
// per-slot metrics, and the completed Result is returned. The engine
// must not be used after Finish.
func (e *Engine) Finish() (*Result, error) {
	if e.finished {
		return nil, fmt.Errorf("sim: engine already finished")
	}
	e.finished = true
	rc, res, state := e.rc, e.res, e.state
	if rc.Obs != nil {
		if e.curSlot >= 0 && e.admStarted {
			wall := time.Since(e.slotStart).Seconds()
			e.histSlotTime.Observe(wall)
			e.flushSlot(e.curSlot, wall)
		}
		for s := e.curSlot + 1; s < e.horizon; s++ {
			e.flushSlot(s, 0)
		}
	}
	if e.admStarted {
		e.admSpan.End()
	}

	if res.TotalValuation > 0 {
		res.WelfareRatio = res.AcceptedValuation / res.TotalValuation
	}
	if e.totalSlotPaths > 0 {
		res.AvgAcceptedHops = float64(e.totalHops) / float64(e.totalSlotPaths)
	}
	if res.Accepted > 0 {
		res.AvgAcceptedLatencyMs = e.totalLatency / float64(res.Accepted)
	}

	sweepSpan := rc.Obs.StartPhase("metrics_sweep")
	horizon := e.horizon
	res.DepletedPerSlot = make([]int, horizon)
	res.CongestedPerSlot = make([]int, horizon)
	res.CumulativeWelfareRatio = make([]float64, horizon)
	// Sweep-side telemetry: the Fig. 7/8 trajectories under the final
	// reservation state, one sample per slot, plus end-of-run gauges
	// (each gauge's last write is the final-slot level).
	var (
		tsDepleted  = e.sampler.Series("slot.depleted_sats")
		tsCongested = e.sampler.Series("slot.congested_links")
		tsDeficit   = e.sampler.Series("slot.energy_deficit_j")
		tsWelfare   = e.sampler.Series("slot.welfare_cum")
		gDepleted   = rc.Obs.Gauge("netstate.depleted_sats")
		gCongested  = rc.Obs.Gauge("netstate.congested_links")
		gDeficit    = rc.Obs.Gauge("energy.total_deficit_j")
	)
	cumArrived, cumAccepted := 0.0, 0.0
	for t := 0; t < horizon; t++ {
		res.DepletedPerSlot[t] = state.DepletedSatCount(t, depletionThresholdFrac)
		res.CongestedPerSlot[t] = state.CongestedLinkCount(t, congestionThresholdFrac)
		cumArrived += e.arrivedVal[t]
		cumAccepted += e.acceptedVal[t]
		if cumArrived > 0 {
			res.CumulativeWelfareRatio[t] = cumAccepted / cumArrived
		} else {
			res.CumulativeWelfareRatio[t] = 1
		}
		if rc.Obs != nil {
			deficit := state.EnergyDeficitJ(t)
			tsDepleted.Record(int64(t), float64(res.DepletedPerSlot[t]))
			tsCongested.Record(int64(t), float64(res.CongestedPerSlot[t]))
			tsDeficit.Record(int64(t), deficit)
			tsWelfare.Record(int64(t), res.CumulativeWelfareRatio[t])
			gDepleted.Set(float64(res.DepletedPerSlot[t]))
			gCongested.Set(float64(res.CongestedPerSlot[t]))
			gDeficit.Set(deficit)
		}
		if rc.Trace != nil {
			if err := rc.Trace.Emit(trace.Record{
				Kind:      trace.KindSnapshot,
				Slot:      t,
				Depleted:  res.DepletedPerSlot[t],
				Congested: res.CongestedPerSlot[t],
			}); err != nil {
				return nil, fmt.Errorf("sim: %w", err)
			}
		}
	}
	sweepSpan.End()
	if rc.Trace != nil {
		if err := rc.Trace.Flush(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	return res, nil
}
