package obs

import (
	"encoding/json"
	"io"
	"time"
)

// RegistrySnapshot is the expvar-style point-in-time view of a registry:
// every counter, gauge, histogram, phase, time series and top-K tracker
// by name. It is the payload of both WriteJSON (the live /metrics.json
// endpoint) and the run report's observability section, whole in both.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Phases     []PhaseSnapshot              `json:"phases,omitempty"`
	TimeSeries map[string]SeriesSnapshot    `json:"timeseries,omitempty"`
	TopK       map[string]TopKSnapshot      `json:"topk,omitempty"`
}

// Snapshot captures the registry. Safe to call concurrently with
// instrument updates; a nil registry yields the zero snapshot.
func (r *Registry) Snapshot() RegistrySnapshot {
	if r == nil {
		return RegistrySnapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	phases := make(map[string]*Phase, len(r.phases))
	for k, v := range r.phases {
		phases[k] = v
	}
	topks := make(map[string]*TopK, len(r.topks))
	for k, v := range r.topks {
		topks[k] = v
	}
	sampler := r.sampler
	r.mu.Unlock()

	snap := RegistrySnapshot{}
	if len(counters) > 0 {
		snap.Counters = make(map[string]int64, len(counters))
		for k, c := range counters {
			snap.Counters[k] = c.Value()
		}
	}
	if len(gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(gauges))
		for k, g := range gauges {
			snap.Gauges[k] = g.Value()
		}
	}
	if len(hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for k, h := range hists {
			snap.Histograms[k] = h.Snapshot()
		}
	}
	for _, name := range sortedKeys(phases) {
		p := phases[name]
		snap.Phases = append(snap.Phases, PhaseSnapshot{
			Name:         name,
			Count:        p.count.Load(),
			TotalSeconds: time.Duration(p.totalNs.Load()).Seconds(),
		})
	}
	if len(topks) > 0 {
		snap.TopK = make(map[string]TopKSnapshot, len(topks))
		for k, t := range topks {
			snap.TopK[k] = t.Snapshot()
		}
	}
	snap.TimeSeries = sampler.Snapshot()
	return snap
}

// WriteJSON writes the current snapshot as indented JSON — the
// expvar-style dump served at /metrics.json. A nil registry writes an
// empty object.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
