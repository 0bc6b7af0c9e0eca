package server

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
)

// hotTestServer serves a run with top-16 hot-spot trackers on the
// daemon's mux, with six decided bookings behind it, and returns its URL.
func hotTestServer(t *testing.T, trace TraceConfig) string {
	t.Helper()
	rc := testRunConfig(t, 2, 21)
	rc.Obs = obs.New()
	rc.HotspotK = 16
	_, hs := newTestServer(t, Config{Run: rc, QueueDepth: 8, Trace: trace})
	for i := 0; i < 6; i++ {
		code, _ := postBook(t, hs.URL, BookRequest{
			Src:      EndpointRef{Kind: "ground", Index: i % 4},
			Dst:      EndpointRef{Kind: "ground", Index: (i + 1) % 4},
			RateMbps: 900, DurationSlots: 3,
		})
		if code != http.StatusOK {
			t.Fatalf("booking %d: HTTP %d", i, code)
		}
	}
	return hs.URL
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q", url, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// keyPaths returns the sorted, distinct key paths of the JSON document at
// url: object members joined by ".", array elements marked "[]".
func keyPaths(t *testing.T, url string) []string {
	t.Helper()
	var doc any
	getJSON(t, url, &doc)
	seen := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				p := k
				if path != "" {
					p = path + "." + k
				}
				seen[p] = true
				walk(p, e)
			}
		case []any:
			for _, e := range v {
				walk(path+"[]", e)
			}
		}
	}
	walk("", doc)
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// TestTelemetrySurface pins the daemon's HTTP surface as spaced builds it
// (obs.NewDebugMux + Register, see newTestServer): every kept route
// answers with its status and content type, each deleted telemetry route
// answers 404, and the JSON key paths of /v1/stats, /metrics.json and
// /v1/config are the listed ones. That the per-link and per-battery tracker totals
// reconcile with the rejection counters is sim.TestHotspotAttributionSumsExactly.
func TestTelemetrySurface(t *testing.T) {
	base := hotTestServer(t, TraceConfig{AuditPath: filepath.Join(t.TempDir(), "audit.jsonl")})
	for _, r := range []struct {
		path  string
		code  int
		ctype string
	}{
		{"/", http.StatusOK, "text/plain; charset=utf-8"},
		{"/metrics", http.StatusOK, obs.PromContentType},
		{"/metrics.json", http.StatusOK, "application/json"},
		{"/debug/pprof/", http.StatusOK, "text/html; charset=utf-8"},
		{"/v1/stats", http.StatusOK, "application/json"},
		{"/v1/requests/1/trace", http.StatusOK, "application/json"},
		{"/debug/traces.json", http.StatusOK, "application/json"},
		{"/v1/config", http.StatusOK, "application/json"},
		{"/v1/reservations/1", http.StatusOK, "application/json"},
		{"/healthz", http.StatusOK, "application/json"},
		{"/timeseries.json", http.StatusNotFound, ""},
		{"/hotspots.json", http.StatusNotFound, ""},
		{"/v1/hotspots", http.StatusNotFound, ""},
		{"/debug/constellation.json", http.StatusNotFound, ""},
		{"/debug/map.svg", http.StatusNotFound, ""},
		{"/debug/dash", http.StatusNotFound, ""},
	} {
		resp, err := http.Get(base + r.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != r.code {
			t.Errorf("GET %s: HTTP %d, want %d", r.path, resp.StatusCode, r.code)
		}
		if ct := resp.Header.Get("Content-Type"); r.ctype != "" && ct != r.ctype {
			t.Errorf("GET %s: content type %q, want %q", r.path, ct, r.ctype)
		}
	}

	check := func(name, url string, want []string) {
		t.Helper()
		if got := keyPaths(t, url); !reflect.DeepEqual(got, want) {
			t.Errorf("%s key paths changed; now:\n%s", name, strings.Join(got, "\n"))
		}
	}
	check("/metrics.json", base+"/metrics.json", metricsKeyPaths)
	traced := append([]string{"trace", "trace.dropped", "trace.records", "trace.sampled"}, statsKeyPaths...)
	sort.Strings(traced)
	check("/v1/stats, tracing on", base+"/v1/stats", traced)
	check("/v1/stats, tracing off", hotTestServer(t, TraceConfig{})+"/v1/stats", statsKeyPaths)
	check("/v1/config", base+"/v1/config", configKeyPaths)
}

// configKeyPaths are the key paths of /v1/config. The workload echoes
// workload.Config, whose fields have no json tags, so adding, renaming
// or deleting one changes the wire body; this list makes that a test
// edit.
var configKeyPaths = []string{
	"algorithm", "clock_rate", "horizon", "pairs", "pairs[].dst",
	"pairs[].dst.index", "pairs[].dst.kind", "pairs[].src",
	"pairs[].src.index", "pairs[].src.kind", "workload",
	"workload.ArrivalRatePerSlot", "workload.Horizon",
	"workload.MaxDurationSlots", "workload.MaxRateMbps",
	"workload.MeanRateMbps", "workload.MinDurationSlots",
	"workload.MinRateMbps", "workload.Pairs", "workload.Pairs[].Dst",
	"workload.Pairs[].Dst.Index", "workload.Pairs[].Dst.Kind",
	"workload.Pairs[].Src", "workload.Pairs[].Src.Index",
	"workload.Pairs[].Src.Kind", "workload.Seed", "workload.Valuation",
}

// statsKeyPaths are the key paths of /v1/stats with tracing off.
var statsKeyPaths = []string{
	"algorithm", "clock_rate", "draining", "horizon",
	"queue_capacity", "queue_depth", "queue_high_water",
	"requests_accepted", "requests_rejected", "requests_shed", "requests_total",
	"revenue", "slo", "slo[].bad", "slo[].burn_rate", "slo[].good",
	"slo[].good_fraction", "slo[].name", "slo[].objective_seconds", "slo[].target",
	"slot", "uptime_seconds", "version",
}

// metricsKeyPaths are the key paths of /metrics.json after six bookings
// with tracing and hot-spot tracking on.
var metricsKeyPaths = []string{
	"counters",
	"counters.core.slot_searches", "counters.energy.consumptions",
	"counters.energy.deficit_walks", "counters.energy.pricing.nanos",
	"counters.graph.dijkstra.heap_pops", "counters.graph.edge_relaxations",
	"counters.graph.fastpath.pruned_labels",
	"counters.graph.fastpath.searches", "counters.graph.search.nanos",
	"counters.netstate.commit.nanos", "counters.netstate.link.reservations",
	"counters.netstate.scratch.reuses",
	"counters.netstate.txn.commits", "counters.netstate.txn.rollbacks",
	"counters.pricing.lut_lookups", "counters.server.batches",
	"counters.server.expired", "counters.server.shed",
	"counters.server.trace.dropped", "counters.server.trace.records",
	"counters.server.trace.sampled", "counters.sim.requests.accepted",
	"counters.sim.requests.rejected.no-path", "counters.sim.requests.total",
	"gauges", "gauges.server.queue_depth", "gauges.server.queue_high_water",
	"gauges.slo.availability.bad", "gauges.slo.availability.burn_rate",
	"gauges.slo.availability.good", "gauges.slo.latency.bad",
	"gauges.slo.latency.burn_rate", "gauges.slo.latency.good", "histograms",
	"histograms.core.plan_price", "histograms.core.plan_price.count",
	"histograms.core.plan_price.max", "histograms.core.plan_price.mean",
	"histograms.core.plan_price.min", "histograms.core.plan_price.p50",
	"histograms.core.plan_price.p95", "histograms.core.plan_price.p99",
	"histograms.core.plan_price.p999", "histograms.core.plan_price.sum",
	"histograms.server.admit_latency",
	"histograms.server.admit_latency.count",
	"histograms.server.admit_latency.max",
	"histograms.server.admit_latency.mean",
	"histograms.server.admit_latency.min",
	"histograms.server.admit_latency.p50",
	"histograms.server.admit_latency.p95",
	"histograms.server.admit_latency.p99",
	"histograms.server.admit_latency.p999",
	"histograms.server.admit_latency.sum", "histograms.sim.slot_seconds",
	"histograms.sim.slot_seconds.count", "histograms.sim.slot_seconds.max",
	"histograms.sim.slot_seconds.mean", "histograms.sim.slot_seconds.min",
	"histograms.sim.slot_seconds.p50", "histograms.sim.slot_seconds.p95",
	"histograms.sim.slot_seconds.p99", "histograms.sim.slot_seconds.p999",
	"histograms.sim.slot_seconds.sum", "phases", "phases[].count",
	"phases[].name", "phases[].total_seconds", "timeseries",
	"timeseries.slot.accepted", "timeseries.slot.accepted.capacity",
	"timeseries.slot.accepted.total", "timeseries.slot.rejected",
	"timeseries.slot.rejected.capacity", "timeseries.slot.rejected.total",
	"timeseries.slot.revenue_cum", "timeseries.slot.revenue_cum.capacity",
	"timeseries.slot.revenue_cum.total", "timeseries.slot.wall_seconds",
	"timeseries.slot.wall_seconds.capacity",
	"timeseries.slot.wall_seconds.total", "topk",
	"topk.energy.hotspots.battery_dod", "topk.energy.hotspots.battery_dod.k",
	"topk.energy.hotspots.battery_dod.mode",
	"topk.energy.hotspots.battery_dod.total",
	"topk.energy.hotspots.battery_rejections",
	"topk.energy.hotspots.battery_rejections.k",
	"topk.energy.hotspots.battery_rejections.mode",
	"topk.energy.hotspots.battery_rejections.total",
	"topk.netstate.hotspots.link_rejections",
	"topk.netstate.hotspots.link_rejections.k",
	"topk.netstate.hotspots.link_rejections.mode",
	"topk.netstate.hotspots.link_rejections.total",
	"topk.netstate.hotspots.link_util", "topk.netstate.hotspots.link_util.k",
	"topk.netstate.hotspots.link_util.mode",
	"topk.netstate.hotspots.link_util.total",
	"topk.sim.hotspots.src_accepted", "topk.sim.hotspots.src_accepted.k",
	"topk.sim.hotspots.src_accepted.mode",
	"topk.sim.hotspots.src_accepted.total", "topk.sim.hotspots.src_rejected",
	"topk.sim.hotspots.src_rejected.entries",
	"topk.sim.hotspots.src_rejected.entries[].key",
	"topk.sim.hotspots.src_rejected.entries[].label",
	"topk.sim.hotspots.src_rejected.entries[].value",
	"topk.sim.hotspots.src_rejected.k", "topk.sim.hotspots.src_rejected.mode",
	"topk.sim.hotspots.src_rejected.total",
}

// TestStatsUptimeAndVersion pins the /v1/stats additions: a build
// version string and an uptime that follows the server's clock.
func TestStatsUptimeAndVersion(t *testing.T) {
	rc := testRunConfig(t, 2, 23)
	var mu sync.Mutex
	now := testEpoch
	_, hs := newTestServer(t, Config{
		Run: rc, QueueDepth: 8,
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		},
	})
	var st Stats
	getJSON(t, hs.URL+"/v1/stats", &st)
	if st.Version == "" {
		t.Error("stats version is empty")
	}
	if st.UptimeSeconds != 0 {
		t.Errorf("uptime at birth = %v, want 0", st.UptimeSeconds)
	}
	mu.Lock()
	now = now.Add(90 * time.Second)
	mu.Unlock()
	getJSON(t, hs.URL+"/v1/stats", &st)
	if st.UptimeSeconds != 90 {
		t.Errorf("uptime after 90s = %v, want 90", st.UptimeSeconds)
	}
}

func TestSummarizeHotspots(t *testing.T) {
	var b strings.Builder
	SummarizeHotspots(nil, &b)
	if got := strings.TrimSpace(b.String()); got != "hotspots: disabled" {
		t.Fatalf("disabled summary = %q", got)
	}
	b.Reset()
	SummarizeHotspots(map[string]obs.TopKSnapshot{
		netstate.TrackerLinkRejections: {Total: 3, Entries: []obs.TopKEntry{
			{Key: 1, Label: "12->13", Value: 2}, {Key: 2, Value: 1},
		}},
	}, &b)
	out := b.String()
	for _, want := range []string{"link_rejections total=3", "12->13=2", "battery_rejections total=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q in:\n%s", want, out)
		}
	}
}
