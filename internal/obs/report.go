package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ReportVersion is bumped whenever the report schema changes
// incompatibly, so downstream diff tooling (spacestat diff) can refuse
// mixed versions. Version 2 added the top-level timeseries section;
// version 3 added the slo section and the p999 histogram quantile;
// version 4 added the hotspots section (top-K entity trackers);
// version 5 moved both back: observability holds the registry snapshot
// whole, in the shape /metrics.json serves it.
const ReportVersion = 5

// Report is the machine-readable end-of-run artifact written by
// `spacebench run -report run.json` (and the figure subcommands): the
// run's configuration echo, its final result metrics, and the full
// observability snapshot (per-phase wall-times, counters, histograms). Two reports from the
// same config are directly diffable; benchmark trajectories become
// artifacts instead of scrollback.
type Report struct {
	Version int    `json:"version"`
	Tool    string `json:"tool"`
	// Config echoes the run's effective configuration (scale, algorithm,
	// rate, seed, pricing parameters, ...). Values are JSON scalars.
	Config map[string]any `json:"config,omitempty"`
	// Metrics holds the final scalar results (welfare ratio, revenue,
	// accepted counts, rejection counts by reason, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// SLO holds the per-class service-level snapshots (latency
	// objective attainment and error-budget burn) for tools that track
	// them, like the spaced serving daemon. Schema v3.
	SLO []SLOSnapshot `json:"slo,omitempty"`
	// Observability is the registry snapshot at the end of the run,
	// whole: counters, gauges, histograms, phases, the per-slot time
	// series (enough to redraw a Fig. 7-style trajectory without a trace)
	// and the top-K entity trackers — the document /metrics.json serves.
	Observability RegistrySnapshot `json:"observability"`
}

// NewReport creates an empty report for the named tool.
func NewReport(tool string) *Report {
	return &Report{
		Version: ReportVersion,
		Tool:    tool,
		Config:  make(map[string]any),
		Metrics: make(map[string]float64),
	}
}

// SetConfig records one configuration key.
func (rep *Report) SetConfig(key string, value any) { rep.Config[key] = value }

// SetMetric records one scalar result.
func (rep *Report) SetMetric(key string, value float64) { rep.Metrics[key] = value }

// SetSLO records the per-class service-level snapshots.
func (rep *Report) SetSLO(classes []SLOSnapshot) { rep.SLO = classes }

// Finish captures the registry snapshot into the observability section.
// A nil registry leaves it empty.
func (rep *Report) Finish(r *Registry) { rep.Observability = r.Snapshot() }

// WriteReport writes the report as indented JSON.
func WriteReport(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("obs: encode report: %w", err)
	}
	return nil
}

// ReadReport parses a report written by WriteReport.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("obs: decode report: %w", err)
	}
	if rep.Version != ReportVersion {
		return nil, fmt.Errorf("obs: report version %d, this tool reads %d", rep.Version, ReportVersion)
	}
	return &rep, nil
}

// WriteReportFile writes the report to path, failing on any write or
// close error.
func WriteReportFile(path string, rep *Report) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if err := WriteReport(f, rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: close report: %w", err)
	}
	return nil
}

// ReadReportFile reads a report from path.
func ReadReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	defer f.Close()
	return ReadReport(f)
}
