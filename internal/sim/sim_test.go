package sim

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
	"spacebooking/internal/pricing"
	"spacebooking/internal/trace"

	"spacebooking/internal/grid"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

var testEpoch = time.Date(2026, time.July, 5, 0, 0, 0, 0, time.UTC)

// sharedProvider is built once: provider construction dominates test time.
var (
	provOnce   sync.Once
	sharedProv *topology.Provider
	provErr    error
)

func testProvider(t *testing.T) *topology.Provider {
	t.Helper()
	provOnce.Do(func() {
		cfg := topology.DefaultConfig(testEpoch)
		cfg.Walker.Planes = 8
		cfg.Walker.SatsPerPlane = 12
		cfg.Walker.PhasingF = 3
		cfg.Horizon = 60
		sharedProv, provErr = topology.NewProvider(cfg, testSites(), nil)
	})
	if provErr != nil {
		t.Fatal(provErr)
	}
	return sharedProv
}

func testSites() []grid.Site {
	return []grid.Site{
		{ID: 0, LatDeg: 40.7, LonDeg: -74.0},  // New York
		{ID: 1, LatDeg: 34.1, LonDeg: -118.2}, // Los Angeles
		{ID: 2, LatDeg: 51.5, LonDeg: -0.1},   // London
		{ID: 3, LatDeg: 35.7, LonDeg: 139.7},  // Tokyo
	}
}

func testPairs() []workload.Pair {
	ep := func(i int) topology.Endpoint {
		return topology.Endpoint{Kind: topology.EndpointGround, Index: i}
	}
	return []workload.Pair{
		{Src: ep(0), Dst: ep(1)},
		{Src: ep(2), Dst: ep(3)},
		{Src: ep(0), Dst: ep(3)},
	}
}

func testWorkload(rate float64, seed int64) workload.Config {
	cfg := workload.DefaultConfig(60, testPairs(), seed)
	cfg.ArrivalRatePerSlot = rate
	return cfg
}

func runOne(t *testing.T, alg AlgorithmKind, rate float64, seed int64) *Result {
	t.Helper()
	prov := testProvider(t)
	rc, err := DefaultRunConfig(alg, testWorkload(rate, seed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prov, rc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAlgorithmKindString(t *testing.T) {
	tests := map[AlgorithmKind]string{
		AlgCEAR: "CEAR", AlgSSP: "SSP", AlgECARS: "ECARS",
		AlgERU: "ERU", AlgERA: "ERA",
		AlgCEARNoEnergy: "CEAR-NE", AlgCEARNoAdmission: "CEAR-AA",
		AlgCEARLinear:     "CEAR-LIN",
		AlgCEARAdaptive:   "CEAR-AD",
		AlgorithmKind(99): "AlgorithmKind(99)",
	}
	for k, want := range tests {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if len(PaperAlgorithms()) != 5 {
		t.Error("paper comparison is five algorithms")
	}
}

func TestParseAlgorithm(t *testing.T) {
	// Round-trip: every kind parses back from its display name.
	for _, k := range AllAlgorithms() {
		got, err := ParseAlgorithm(k.String())
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseAlgorithm(%q) = %v, want %v", k.String(), got, k)
		}
	}
	// Case-insensitive.
	for in, want := range map[string]AlgorithmKind{
		"cear": AlgCEAR, "Ssp": AlgSSP, "cear-ne": AlgCEARNoEnergy, "CEAR-ad": AlgCEARAdaptive,
	} {
		if got, err := ParseAlgorithm(in); err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// Unknown names error and name the valid set.
	if _, err := ParseAlgorithm("DIJKSTRA"); err == nil {
		t.Error("unknown algorithm should error")
	} else if !strings.Contains(err.Error(), "CEAR-AD") {
		t.Errorf("error %q should list the valid names", err)
	}
	if got := len(AlgorithmNames()); got != len(AllAlgorithms()) {
		t.Errorf("AlgorithmNames has %d entries, want %d", got, len(AllAlgorithms()))
	}
}

// TestParseAlgorithmRejections pins every rejection path: near-misses,
// whitespace, embedded valid names and the empty string must all fail
// with an error that echoes the offending input and the valid set.
func TestParseAlgorithmRejections(t *testing.T) {
	for _, in := range []string{
		"",           // empty
		" ",          // blank
		"CEAR ",      // trailing space (no trimming — flags arrive exact)
		" CEAR",      // leading space
		"CEARX",      // valid prefix, junk suffix
		"CEAR-",      // dangling variant separator
		"CEAR-NE-AD", // two variants glued together
		"SSP,ECARS",  // list instead of one name
		"cear_ne",    // wrong separator
		"0",          // numeric kind is not an accepted spelling
		"AlgCEAR",    // Go identifier, not display name
		"CEAR\n",     // trailing newline
	} {
		got, err := ParseAlgorithm(in)
		if err == nil {
			t.Errorf("ParseAlgorithm(%q) = %v, want error", in, got)
			continue
		}
		if got != 0 {
			t.Errorf("ParseAlgorithm(%q) kind = %v, want zero on error", in, got)
		}
		if !strings.Contains(err.Error(), strconv.Quote(in)) {
			t.Errorf("ParseAlgorithm(%q) error %q should echo the input", in, err)
		}
		if !strings.Contains(err.Error(), "CEAR, SSP") {
			t.Errorf("ParseAlgorithm(%q) error %q should list the valid names", in, err)
		}
	}
}

func TestRunWithObservability(t *testing.T) {
	prov := testProvider(t)
	rc, err := DefaultRunConfig(AlgCEAR, testWorkload(2, 42))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	rc.Obs = reg
	res, err := Run(prov, rc)
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["sim.requests.total"]; got != int64(res.TotalRequests) {
		t.Errorf("sim.requests.total = %d, want %d", got, res.TotalRequests)
	}
	if got := snap.Counters["sim.requests.accepted"]; got != int64(res.Accepted) {
		t.Errorf("sim.requests.accepted = %d, want %d", got, res.Accepted)
	}
	for reason, n := range res.Rejections {
		if got := snap.Counters["sim.requests.rejected."+reason]; got != int64(n) {
			t.Errorf("rejected.%s counter = %d, want %d", reason, got, n)
		}
	}
	for _, name := range []string{
		"graph.dijkstra.heap_pops", "graph.edge_relaxations",
		"netstate.txn.commits", "pricing.lut_lookups", "core.slot_searches",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	phases := make(map[string]obs.PhaseSnapshot, len(snap.Phases))
	for _, p := range snap.Phases {
		phases[p.Name] = p
	}
	for _, name := range []string{"workload_generate", "state_build", "admission", "metrics_sweep"} {
		p, ok := phases[name]
		if !ok || p.Count == 0 {
			t.Errorf("phase %s missing or never timed: %+v", name, p)
		}
	}
	slotHist, ok := snap.Histograms["sim.slot_seconds"]
	if !ok {
		t.Fatal("sim.slot_seconds histogram missing")
	}
	// One observation per slot that received at least one request, so
	// the count is positive and bounded by the horizon.
	if slotHist.Count <= 0 || slotHist.Count > int64(prov.Horizon()) {
		t.Errorf("slot histogram count = %d, want within (0, %d]", slotHist.Count, prov.Horizon())
	}

	// The per-slot sampler records exactly one sample per horizon slot
	// for every series, and the series agree with the result's own
	// trajectories and totals.
	horizon := prov.Horizon()
	for _, name := range []string{
		"slot.accepted", "slot.rejected", "slot.revenue_cum", "slot.wall_seconds",
		"slot.depleted_sats", "slot.congested_links", "slot.energy_deficit_j", "slot.welfare_cum",
	} {
		ts, ok := snap.TimeSeries[name]
		if !ok {
			t.Fatalf("time series %s missing (have %v)", name, len(snap.TimeSeries))
		}
		if ts.Total != int64(horizon) || len(ts.Slots) != horizon {
			t.Errorf("%s: %d samples over %d slots, want one per slot (horizon %d)",
				name, ts.Total, len(ts.Slots), horizon)
		}
		for i, s := range ts.Slots {
			if s != int64(i) {
				t.Fatalf("%s: sample %d at slot %d, want %d", name, i, s, i)
			}
		}
	}
	sumSeries := func(name string) float64 {
		total := 0.0
		for _, v := range snap.TimeSeries[name].Values {
			total += v
		}
		return total
	}
	if got := sumSeries("slot.accepted"); got != float64(res.Accepted) {
		t.Errorf("slot.accepted sums to %v, want %d", got, res.Accepted)
	}
	if got := sumSeries("slot.rejected"); got != float64(res.TotalRequests-res.Accepted) {
		t.Errorf("slot.rejected sums to %v, want %d", got, res.TotalRequests-res.Accepted)
	}
	revSeries := snap.TimeSeries["slot.revenue_cum"]
	if got := revSeries.Last(); math.Abs(got-res.Revenue) > 1e-9*(1+math.Abs(res.Revenue)) {
		t.Errorf("slot.revenue_cum ends at %v, want %v", got, res.Revenue)
	}
	for i := 1; i < len(revSeries.Values); i++ {
		if revSeries.Values[i] < revSeries.Values[i-1] {
			t.Fatalf("cumulative revenue decreased at slot %d", i)
		}
	}
	for t2 := 0; t2 < horizon; t2++ {
		if got := snap.TimeSeries["slot.depleted_sats"].Values[t2]; got != float64(res.DepletedPerSlot[t2]) {
			t.Fatalf("slot.depleted_sats[%d] = %v, want %d", t2, got, res.DepletedPerSlot[t2])
		}
		if got := snap.TimeSeries["slot.congested_links"].Values[t2]; got != float64(res.CongestedPerSlot[t2]) {
			t.Fatalf("slot.congested_links[%d] = %v, want %d", t2, got, res.CongestedPerSlot[t2])
		}
		if got := snap.TimeSeries["slot.welfare_cum"].Values[t2]; got != res.CumulativeWelfareRatio[t2] {
			t.Fatalf("slot.welfare_cum[%d] = %v, want %v", t2, got, res.CumulativeWelfareRatio[t2])
		}
	}
	// End-of-run gauges mirror the final slot of their series.
	if got := snap.Gauges["netstate.depleted_sats"]; got != float64(res.DepletedPerSlot[horizon-1]) {
		t.Errorf("netstate.depleted_sats gauge = %v, want %d", got, res.DepletedPerSlot[horizon-1])
	}
	if got := snap.Gauges["netstate.congested_links"]; got != float64(res.CongestedPerSlot[horizon-1]) {
		t.Errorf("netstate.congested_links gauge = %v, want %d", got, res.CongestedPerSlot[horizon-1])
	}
	if snap.TimeSeries["slot.energy_deficit_j"].Last() != snap.Gauges["energy.total_deficit_j"] {
		t.Errorf("energy deficit gauge/series disagree")
	}

	// Instruments are threaded through each run's own state, so a second
	// uninstrumented run leaves the first run's counters untouched.
	pops := snap.Counters["graph.dijkstra.heap_pops"]
	rc.Obs = nil
	if _, err := Run(prov, rc); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("graph.dijkstra.heap_pops").Value(); got != pops {
		t.Errorf("heap pops moved from %d to %d after an uninstrumented run", pops, got)
	}
}

// TestConcurrentRunsNeverCrossCount is the regression test for the old
// package-global instrument hooks: graph/energy counters attached
// atomically, so concurrent runs overwrote each other's attachment and
// one run's teardown (which fired even for uninstrumented runs)
// clobbered another's counters mid-flight. With handles threaded through
// each run's State, concurrent runs over one shared Provider — some
// instrumented, some not — must each count exactly what the same run
// counts alone.
func TestConcurrentRunsNeverCrossCount(t *testing.T) {
	prov := testProvider(t)
	type job struct {
		alg  AlgorithmKind
		seed int64
		obs  bool
	}
	// Four instrumented runs plus two uninstrumented ones interleaved:
	// under the global-hook design the uninstrumented runs' teardown
	// detached everyone's counters.
	jobs := []job{
		{AlgCEAR, 42, true},
		{AlgSSP, 42, true},
		{AlgCEAR, 7, true},
		{AlgECARS, 42, true},
		{AlgCEAR, 42, false},
		{AlgERA, 7, false},
	}

	// Sequential baseline: what each instrumented run counts on its own.
	want := make([]map[string]int64, len(jobs))
	for i, j := range jobs {
		if !j.obs {
			continue
		}
		rc, err := DefaultRunConfig(j.alg, testWorkload(2, j.seed))
		if err != nil {
			t.Fatal(err)
		}
		rc.Obs = obs.New()
		if _, err := Run(prov, rc); err != nil {
			t.Fatal(err)
		}
		want[i] = rc.Obs.Snapshot().Counters
	}

	regs := make([]*obs.Registry, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		rc, err := DefaultRunConfig(j.alg, testWorkload(2, j.seed))
		if err != nil {
			t.Fatal(err)
		}
		if j.obs {
			regs[i] = obs.New()
			rc.Obs = regs[i]
		}
		wg.Add(1)
		go func(i int, rc RunConfig) {
			defer wg.Done()
			_, errs[i] = Run(prov, rc)
		}(i, rc)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	for i, reg := range regs {
		if reg == nil {
			continue
		}
		got := reg.Snapshot().Counters
		for _, name := range []string{
			"graph.dijkstra.heap_pops", "graph.edge_relaxations",
			"energy.deficit_walks", "energy.consumptions",
			"sim.requests.total", "netstate.txn.commits",
		} {
			if got[name] != want[i][name] {
				t.Errorf("run %d counter %s = %d concurrent, %d sequential",
					i, name, got[name], want[i][name])
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	prov := testProvider(t)
	rc, err := DefaultRunConfig(AlgCEAR, testWorkload(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(nil, rc); err == nil {
		t.Error("nil provider should error")
	}
	bad := rc
	bad.Algorithm = AlgorithmKind(0)
	if _, err := Run(prov, bad); err == nil {
		t.Error("unknown algorithm should error")
	}
	bad = rc
	bad.Workload.Pairs = nil
	if _, err := Run(prov, bad); err == nil {
		t.Error("bad workload should error")
	}
}

func TestRunAllAlgorithmsProduceSaneResults(t *testing.T) {
	for _, alg := range []AlgorithmKind{AlgCEAR, AlgSSP, AlgECARS, AlgERU, AlgERA, AlgCEARNoEnergy, AlgCEARNoAdmission, AlgCEARLinear, AlgCEARAdaptive} {
		t.Run(alg.String(), func(t *testing.T) {
			res := runOne(t, alg, 2, 42)
			if res.Algorithm != alg.String() {
				t.Errorf("result algorithm = %q", res.Algorithm)
			}
			if res.TotalRequests == 0 {
				t.Fatal("no requests generated")
			}
			if res.WelfareRatio < 0 || res.WelfareRatio > 1 {
				t.Errorf("welfare ratio %v outside [0,1]", res.WelfareRatio)
			}
			if res.Accepted == 0 && alg != AlgERU {
				t.Errorf("%s accepted nothing", alg)
			}
			if got := len(res.DepletedPerSlot); got != 60 {
				t.Errorf("depleted series length %d", got)
			}
			if got := len(res.CongestedPerSlot); got != 60 {
				t.Errorf("congested series length %d", got)
			}
			if got := len(res.CumulativeWelfareRatio); got != 60 {
				t.Errorf("welfare series length %d", got)
			}
			for tt, v := range res.CumulativeWelfareRatio {
				if v < 0 || v > 1 {
					t.Fatalf("cumulative welfare %v at slot %d", v, tt)
				}
			}
			accVal := res.AcceptedValuation
			if accVal > res.TotalValuation {
				t.Error("accepted valuation exceeds total")
			}
			rejected := 0
			for _, n := range res.Rejections {
				rejected += n
			}
			if res.Accepted+rejected != res.TotalRequests {
				t.Errorf("accepted %d + rejected %d != total %d", res.Accepted, rejected, res.TotalRequests)
			}
		})
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	a := runOne(t, AlgCEAR, 2, 7)
	b := runOne(t, AlgCEAR, 2, 7)
	if a.Accepted != b.Accepted || a.WelfareRatio != b.WelfareRatio || a.Revenue != b.Revenue {
		t.Errorf("same seed produced different results: %+v vs %+v", a, b)
	}
}

func TestCEAROutperformsSSPUnderSaturation(t *testing.T) {
	// Under heavy load on few pairs, CEAR's admission control and
	// balanced routing must match or beat SSP's greedy min-hop welfare —
	// the headline ordering of Fig. 6.
	cear := runOne(t, AlgCEAR, 8, 3)
	ssp := runOne(t, AlgSSP, 8, 3)
	if cear.WelfareRatio < ssp.WelfareRatio-0.02 {
		t.Errorf("CEAR welfare %v below SSP %v under saturation", cear.WelfareRatio, ssp.WelfareRatio)
	}
}

func TestCEARRevenueOnlyForCEAR(t *testing.T) {
	ssp := runOne(t, AlgSSP, 2, 5)
	if ssp.Revenue != 0 {
		t.Errorf("SSP revenue = %v, baselines charge nothing", ssp.Revenue)
	}
}

func TestCEARKeepsBatteriesHealthierThanSSP(t *testing.T) {
	cear := runOne(t, AlgCEAR, 8, 11)
	ssp := runOne(t, AlgSSP, 8, 11)
	if cear.MeanDepleted() > ssp.MeanDepleted()+0.5 {
		t.Errorf("CEAR mean depleted %v worse than SSP %v", cear.MeanDepleted(), ssp.MeanDepleted())
	}
}

func TestWelfareDecreasesWithArrivalRate(t *testing.T) {
	// More offered load with the same capacity must not increase the
	// welfare *ratio* (Fig. 6's downward trend) — allow small noise.
	low := runOne(t, AlgCEAR, 1, 9)
	high := runOne(t, AlgCEAR, 10, 9)
	if high.WelfareRatio > low.WelfareRatio+0.05 {
		t.Errorf("welfare ratio rose with load: %v (rate 1) -> %v (rate 10)",
			low.WelfareRatio, high.WelfareRatio)
	}
}

func TestRunWithTrace(t *testing.T) {
	prov := testProvider(t)
	rc, err := DefaultRunConfig(AlgCEAR, testWorkload(2, 42))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rc.Trace = trace.NewWriter(&buf)
	res, err := Run(prov, rc)
	if err != nil {
		t.Fatal(err)
	}
	records, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	summary := trace.Summarize(records)
	if summary.Total != res.TotalRequests {
		t.Errorf("trace decisions %d != requests %d", summary.Total, res.TotalRequests)
	}
	if summary.Accepted != res.Accepted {
		t.Errorf("trace accepted %d != %d", summary.Accepted, res.Accepted)
	}
	if math.Abs(summary.Revenue-res.Revenue) > 1e-6 {
		t.Errorf("trace revenue %v != %v", summary.Revenue, res.Revenue)
	}
	if summary.Snapshots != prov.Horizon() {
		t.Errorf("snapshots %d != horizon %d", summary.Snapshots, prov.Horizon())
	}
	if records[0].Kind != trace.KindRunInfo || records[0].Algorithm != "CEAR" {
		t.Errorf("first record = %+v", records[0])
	}
}

func TestCheckAssumptions(t *testing.T) {
	prov := testProvider(t)
	params, err := pricing.Derive(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := netstate.DefaultEnergyConfig()

	if _, err := CheckAssumptions(nil, params, ecfg, nil); err == nil {
		t.Error("nil provider should error")
	}

	// The paper's evaluation workload violates the assumptions by design
	// (valuations far above n𝕋F1+n𝕋F2=400, demands above c_min/log2μ).
	reqs, err := workload.Generate(testWorkload(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CheckAssumptions(prov, params, ecfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != len(reqs) {
		t.Errorf("total = %d", rep.Total)
	}
	if rep.Compliant() {
		t.Error("the default workload should violate the assumptions (the paper says so)")
	}
	if rep.ValuationTooHigh != len(reqs) {
		t.Errorf("valuation-high = %d, want all %d (ρ=1e8 >> 400)", rep.ValuationTooHigh, len(reqs))
	}
	if rep.DemandTooLarge != len(reqs) {
		t.Errorf("demand-large = %d, want all (500-2000 Mbps > 4000/log2(402))", rep.DemandTooLarge)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}

	// A theory-compliant request: tiny demand, valuation inside the band.
	tiny := []workload.Request{{
		ID: 1, Src: reqs[0].Src, Dst: reqs[0].Dst,
		StartSlot: 0, EndSlot: 0, RateMbps: 0.0001, Valuation: 399,
	}}
	rep2, err := CheckAssumptions(prov, params, ecfg, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Compliant() {
		t.Errorf("tiny request should comply: %s", rep2)
	}
	if rep2.String() == "" || rep2.Total != 1 {
		t.Errorf("report = %+v", rep2)
	}

	// Invalid request surfaces an error.
	bad := []workload.Request{{ID: 2, Src: reqs[0].Src, Dst: reqs[0].Dst, StartSlot: 0, EndSlot: 9999, RateMbps: 1, Valuation: 1}}
	if _, err := CheckAssumptions(prov, params, ecfg, bad); err == nil {
		t.Error("invalid request should error")
	}
}

func TestLatencyMetricPlausible(t *testing.T) {
	res := runOne(t, AlgCEAR, 2, 42)
	if res.Accepted == 0 {
		t.Skip("nothing accepted")
	}
	// LEO paths: one up-leg + a few ISL hops + one down-leg. Plausible
	// one-way propagation latency is 3-150 ms.
	if res.AvgAcceptedLatencyMs < 3 || res.AvgAcceptedLatencyMs > 150 {
		t.Errorf("avg latency = %v ms, implausible for LEO", res.AvgAcceptedLatencyMs)
	}
}

// batteryBits is every battery's observable ledger — each cell's bits
// and the deficit bounds — in one comparable slice.
func batteryBits(s *netstate.State) []uint64 {
	var out []uint64
	for sat := 0; sat < s.Provider().NumSats(); sat++ {
		b := s.Battery(sat)
		first, last := b.DeficitSpan()
		out = append(out, uint64(first), uint64(last))
		for t := 0; t < b.Horizon(); t++ {
			out = append(out, math.Float64bits(b.DeficitAt(t)), math.Float64bits(b.SolarRemainingAt(t)))
		}
	}
	return out
}

// requestLinkBits is every link cell a request can reserve, as bits: each
// ISL (every CSR edge) and each USL between an endpoint and a satellite
// it sees, in every slot of the request's window.
func requestLinkBits(t *testing.T, s *netstate.State, req workload.Request) []uint64 {
	t.Helper()
	prov := s.Provider()
	csr := prov.ISLCSR()
	var out []uint64
	for slot := req.StartSlot; slot <= req.EndSlot; slot++ {
		for sat := 0; sat < prov.NumSats(); sat++ {
			for _, to := range csr.To[csr.Offsets[sat]:csr.Offsets[sat+1]] {
				out = append(out, math.Float64bits(s.LinkUsedMbps(netstate.MakeLinkKey(sat, int(to)), slot)))
			}
		}
		for _, ep := range []topology.Endpoint{req.Src, req.Dst} {
			vis, err := prov.VisibleSats(ep, slot)
			if err != nil {
				t.Fatal(err)
			}
			gid := prov.GlobalID(ep)
			for _, sat := range vis {
				out = append(out,
					math.Float64bits(s.LinkUsedMbps(netstate.MakeLinkKey(gid, sat), slot)),
					math.Float64bits(s.LinkUsedMbps(netstate.MakeLinkKey(sat, gid), slot)))
			}
		}
	}
	return out
}

// TestRejectedAdmissionLeavesNoTrace: whatever a rejected request
// reserved and consumed on its way to the rejection — slots routed before
// a later one found no path, a plan priced out after routing — its
// rollback must leave every battery's cells and deficit bounds, and every
// link cell the request could have reserved, bit-identical to before the
// request, for CEAR and for a baseline.
func TestRejectedAdmissionLeavesNoTrace(t *testing.T) {
	prov := testProvider(t)
	for _, alg := range []AlgorithmKind{AlgCEAR, AlgSSP} {
		rc, err := DefaultRunConfig(alg, testWorkload(3, 3))
		if err != nil {
			t.Fatal(err)
		}
		rc.Obs = obs.New()
		eng, err := NewEngine(prov, rc)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.Generate(rc.Workload)
		if err != nil {
			t.Fatal(err)
		}
		rollbacks := rc.Obs.Counter("netstate.txn.rollbacks")
		undone := 0
		for _, req := range reqs {
			bats, links, rolled := batteryBits(eng.State()), requestLinkBits(t, eng.State(), req), rollbacks.Value()
			d, err := eng.Admit(req)
			if err != nil {
				t.Fatal(err)
			}
			if d.Accepted {
				continue
			}
			if rollbacks.Value() > rolled {
				undone++
			}
			if !slices.Equal(batteryBits(eng.State()), bats) {
				t.Fatalf("%v: request %d rejected (%s) but its consumption stayed on the batteries", alg, req.ID, d.Reason)
			}
			if !slices.Equal(requestLinkBits(t, eng.State(), req), links) {
				t.Fatalf("%v: request %d rejected (%s) but a link cell differs from before it", alg, req.ID, d.Reason)
			}
		}
		if undone == 0 {
			t.Fatalf("%v: no rejection rolled anything back; raise the rate", alg)
		}
		t.Logf("%v: %d of %d requests rejected after a rollback", alg, undone, len(reqs))
	}
}

// TestAdaptiveKeepsTraceDetailAcrossRebuilds: CEAR-AD re-derives its
// parameters every 16 slots by building a new inner CEAR over the same
// State. With a nominal rate of 1 and an offered rate of 8 the first
// window closes with a change, so slot 16 rebuilds; the trace-detail
// timers EnableTraceDetail attached must keep counting after it.
func TestAdaptiveKeepsTraceDetailAcrossRebuilds(t *testing.T) {
	prov := testProvider(t)
	rc, err := DefaultRunConfig(AlgCEARAdaptive, testWorkload(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	rc.Obs = obs.New()
	eng, err := NewEngine(prov, rc)
	if err != nil {
		t.Fatal(err)
	}
	eng.EnableTraceDetail()
	reqs, err := workload.Generate(testWorkload(8, 5))
	if err != nil {
		t.Fatal(err)
	}
	timers := []*obs.Counter{rc.Obs.Counter("graph.search.nanos"), rc.Obs.Counter("netstate.commit.nanos")}
	var before []int64
	for _, req := range reqs {
		if before == nil && req.ArrivalSlot > 16 {
			for _, c := range timers {
				before = append(before, c.Value())
			}
		}
		if _, err := eng.Admit(req); err != nil {
			t.Fatal(err)
		}
	}
	if before == nil {
		t.Fatal("no request arrived after slot 16")
	}
	for i, c := range timers {
		if before[i] == 0 || c.Value() <= before[i] {
			t.Errorf("%s: %d ns at slot 17, %d ns at the end; want it to grow after the rebuild",
				[]string{"graph.search.nanos", "netstate.commit.nanos"}[i], before[i], c.Value())
		}
	}
}
