package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"spacebooking/internal/graph"
	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
	"spacebooking/internal/pricing"
	"spacebooking/internal/server"
	"spacebooking/internal/workload"
)

// counters is a registry's counters by name. A name the program no
// longer publishes reads as absent, never as an error.
type counters map[string]int64

func readCounters(reg *obs.Registry) counters { return counters(reg.Snapshot().Counters) }

// layerSet collects per-layer values; names never set are reported as
// not applicable.
type layerSet map[string]float64

// ratio sets name to num/den, where num is a published counter; it stays
// unset when the counter is gone or den is zero.
func (l layerSet) ratio(name string, c counters, counter string, den float64) {
	v, ok := c[counter]
	if !ok || den == 0 {
		return
	}
	l[name] = float64(v) / den
}

// tail sets the latency-tail diagnostics from a traced pass's samples.
func (l layerSet) tail(latNs []int64) {
	ms := nsToSortedMs(latNs)
	l["loadgen.lat_ms_p95"] = percentile(ms, 95)
	l["loadgen.lat_ms_p99"] = percentile(ms, 99)
	if v, _, ok := pmax10(ms); ok {
		l["loadgen.lat_ms_pmax10"] = v
	}
}

// engineLayers derives the core/netstate/energy/pricing rows of one
// traced direct lap of n requests from the counters the engine publishes
// (the PR 6 sub-phase timers among them). admitUs is the mean Admit call.
func engineLayers(l layerSet, c counters, n, accepted int, admitUs float64) {
	nf := float64(n)
	searches := float64(c["graph.fastpath.searches"])
	l.ratio("core.slot_searches_per_req", c, "core.slot_searches", nf)
	l.ratio("netstate.heap_pops_per_search", c, "graph.dijkstra.heap_pops", searches)
	l.ratio("netstate.edge_relaxations_per_search", c, "graph.edge_relaxations", searches)
	l.ratio("netstate.pruned_labels_per_req", c, "graph.fastpath.pruned_labels", nf)
	l.ratio("netstate.trial_consumes_per_req", c, "netstate.trial_consumes", nf)
	l.ratio("netstate.commits_per_req", c, "netstate.txn.commits", nf)
	l.ratio("netstate.rollbacks_per_req", c, "netstate.txn.rollbacks", nf)
	l.ratio("netstate.link_reservations_per_accept", c, "netstate.link.reservations", float64(accepted))
	l.ratio("energy.deficit_walks_per_search", c, "energy.deficit_walks", searches)
	l.ratio("pricing.lut_lookups_per_search", c, "pricing.lut_lookups", searches)

	searchNs, okS := c["graph.search.nanos"]
	pricingNs, okP := c["energy.pricing.nanos"]
	commitNs, okC := c["netstate.commit.nanos"]
	if okS && okP && okC && n > 0 {
		// The search timer includes the pricing callbacks it invokes;
		// subtracting makes the three sub-phases disjoint.
		search := float64(searchNs-pricingNs) / 1e3 / nf
		pricingUs := float64(pricingNs) / 1e3 / nf
		commit := float64(commitNs) / 1e3 / nf
		l["netstate.search_self_us"] = search
		l["energy.pricing_us"] = pricingUs
		l["netstate.commit_us"] = commit
		l["core.other_us"] = admitUs - search - pricingUs - commit
	}
}

var probeSink float64

const (
	probeSamples   = 256
	probeBatteries = 16
	// probeDemandMbps is the paper's mean request rate.
	probeDemandMbps = 1250
)

// kernelProbes times the admission kernels in isolation on a warmed
// state, over a seeded fixed set of (pair, slot) samples. Every probe
// leaves the ledgers as it found them (the one mutating probe rolls
// back), but they do move the state's counters: read those first.
func kernelProbes(l layerSet, state *netstate.State, pairs []workload.Pair, params pricing.Params, seed int64) {
	prov := state.Provider()
	rng := rand.New(rand.NewSource(seed))
	type sample struct {
		pair workload.Pair
		slot int
	}
	samples := make([]sample, probeSamples)
	for i := range samples {
		samples[i] = sample{pairs[rng.Intn(len(pairs))], rng.Intn(prov.Horizon())}
	}
	fast := params.Fast()
	unit := func(netstate.LinkKey, graph.EdgeClass, float64, float64) float64 { return 1 }
	congestion := func(_ netstate.LinkKey, _ graph.EdgeClass, _, utilization float64) float64 {
		return fast.CongestionUnitCost(utilization)*probeDemandMbps + 1e-6
	}
	sc := netstate.NewSearchScratch()
	build := func(s sample, cost netstate.EdgeCostFunc) *netstate.FlatView {
		v, err := sc.BuildView(state, s.slot, s.pair.Src, s.pair.Dst, probeDemandMbps, cost)
		if err != nil {
			return nil
		}
		return v
	}
	perUs := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }

	// First pass warms the scratch; the second is timed.
	for pass := 0; pass < 2; pass++ {
		t0 := time.Now()
		for _, s := range samples {
			build(s, unit)
		}
		l["netstate.build_view_us"] = perUs(time.Since(t0), len(samples))
	}

	var keys []netstate.LinkKey
	search := func(cost netstate.EdgeCostFunc, collect bool) float64 {
		var total time.Duration
		n := 0
		for _, s := range samples {
			v := build(s, cost)
			if v == nil {
				continue
			}
			t0 := time.Now()
			path, ok, _ := v.Search(nil, 0, 0, math.Inf(1))
			total += time.Since(t0)
			n++
			if ok && collect {
				for i := 0; i+1 < len(path.Nodes); i++ {
					keys = append(keys, v.LinkKeyFor(path.Nodes[i], path.Nodes[i+1]))
				}
			}
			probeSink += path.Cost
		}
		if n == 0 {
			return 0
		}
		return perUs(total, n)
	}
	l["netstate.search_unit_us"] = search(unit, true)
	l["netstate.search_congestion_us"] = search(congestion, false)

	if len(keys) > 0 {
		const lookups = 200_000
		horizon := prov.Horizon()
		t0 := time.Now()
		for i := 0; i < lookups; i++ {
			probeSink += state.LinkUtilization(keys[i%len(keys)], i%horizon)
		}
		l["netstate.link_lookup_ns"] = float64(time.Since(t0).Nanoseconds()) / lookups
	}

	var cycle time.Duration
	cycles := 0
	var cons []netstate.Consumption
	for _, s := range samples {
		v := build(s, congestion)
		if v == nil {
			continue
		}
		path, ok, _ := v.Search(nil, 0, 0, math.Inf(1))
		if !ok {
			continue
		}
		cons = v.AppendConsumptions(path, cons[:0])
		t0 := time.Now()
		txn := state.Begin()
		// A full link or an empty battery fails the reservation half way;
		// Rollback restores either way, and the cycle is timed regardless.
		if err := txn.ReservePath(v, path); err == nil {
			_ = txn.Consume(cons)
		}
		txn.Rollback()
		cycle += time.Since(t0)
		cycles++
	}
	if cycles > 0 {
		l["netstate.txn_cycle_us"] = perUs(cycle, cycles)
	}

	// Energy probes at the (battery, slot) pairs where a mean-rate relay
	// draw leaves the longest-lived deficit: the walk Eq. (12) prices is
	// longest there. Every fourth slot is tried.
	joules := state.EnergyConfig().TransitEnergyJ(graph.ClassISL, graph.ClassISL, probeDemandMbps, prov.Config().SlotSeconds)
	type hot struct{ sat, slot, walk int }
	var hots []hot
	for sat := 0; sat < prov.NumSats(); sat++ {
		b := state.Battery(sat)
		best := hot{sat: sat}
		for t := 0; t < b.Horizon(); t += 4 {
			walk := 0
			b.VisitDeficit(t, joules, func(int, float64) bool { walk++; return true })
			if walk > best.walk {
				best.slot, best.walk = t, walk
			}
		}
		hots = append(hots, best)
	}
	sort.SliceStable(hots, func(i, j int) bool { return hots[i].walk > hots[j].walk })
	if len(hots) > probeBatteries {
		hots = hots[:probeBatteries]
	}
	const reps = 64
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, h := range hots {
			b := state.Battery(h.sat)
			b.VisitDeficit(h.slot, joules, func(t int, outstanding float64) bool {
				probeSink += fast.EnergyUnitCost(b.UtilizationAt(t)) * outstanding
				return true
			})
		}
	}
	l["energy.visit_deficit_us"] = perUs(time.Since(t0), reps*len(hots))
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, h := range hots {
			if err := state.Battery(h.sat).TrialConsume(h.slot, joules); err != nil {
				probeSink++
			}
		}
	}
	l["energy.trial_consume_us"] = perUs(time.Since(t0), reps*len(hots))

	lambdas := make([]float64, 1024)
	for i := range lambdas {
		lambdas[i] = rng.Float64()
	}
	const lookups = 1_000_000
	t0 = time.Now()
	for i := 0; i < lookups; i++ {
		probeSink += fast.CongestionUnitCost(lambdas[i&1023])
	}
	l["pricing.unit_cost_ns"] = float64(time.Since(t0).Nanoseconds()) / lookups
}

// topPhases are the serving layer's disjoint top-level phases: together
// with the network residual they make up a client round trip. The
// engine.* sub-phases lie inside engine.admit.
var topPhases = map[string]string{
	server.PhaseIngressParse: "server.ingress_parse_us",
	server.PhaseQueueWait:    "server.queue_wait_us",
	server.PhaseBatchWait:    "server.batch_wait_us",
	server.PhaseEngineAdmit:  "server.engine_admit_us",
	server.PhaseRespond:      "server.respond_us",
}

// readAudit loads an audit JSONL file keyed by client request id.
func readAudit(path string) (map[string]*server.AuditRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("audit log: %w", err)
	}
	defer f.Close()
	out := make(map[string]*server.AuditRecord)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		rec := new(server.AuditRecord)
		if err := json.Unmarshal(sc.Bytes(), rec); err != nil {
			return nil, fmt.Errorf("audit log: %w", err)
		}
		out[rec.ClientID] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("audit log: %w", err)
	}
	return out, nil
}
