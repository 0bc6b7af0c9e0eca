// Package scenario is the declarative workload layer over
// internal/workload: versioned JSON specs describe multiple client
// classes (Poisson/Gamma/Weibull interarrivals, per-class request
// mixes), diurnal intensity cycles keyed to the GDP grid, and timed
// events (flash crowds, regional outages, EO-fleet downlink bursts)
// that modulate rates mid-run. A spec plus a Binding (horizon, pairs,
// sites) yields a deterministic request stream that plugs into both the
// batch simulator and the serving path, and the package's Erlang-B
// analytical twin gives closed-form blocking probabilities to validate
// the simulator against on single-bottleneck scenarios.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// SpecVersion is the schema version this package reads and writes.
const SpecVersion = 1

// Arrival process names.
const (
	ProcessPoisson = "poisson"
	ProcessGamma   = "gamma"
	ProcessWeibull = "weibull"
)

// Event kinds.
const (
	// EventFlashCrowd multiplies the arrival rate of the affected
	// classes by Factor during the window.
	EventFlashCrowd = "flash_crowd"
	// EventRegionalOutage scales the weight of pairs whose source site
	// lies within RadiusKm of the centre by Factor (default 0: the
	// region goes dark) during the window.
	EventRegionalOutage = "regional_outage"
	// EventEOBurst multiplies the weight of pairs with a space-borne
	// source (EO downlink pairs) by Factor during the window — a fleet
	// dumping imagery after a pass.
	EventEOBurst = "eo_burst"
)

// Spec is a declarative workload: what arrives, when, and how intensely.
// It is deliberately environment-free — pairs, sites and the default
// horizon come from a Binding at generation time, so the same spec file
// drives the small CI preset and the full-scale constellation alike.
type Spec struct {
	// Version must equal SpecVersion.
	Version int `json:"version"`
	// Name identifies the spec in traces, reports and SUMMARY lines.
	Name string `json:"name"`
	// Seed drives every random draw; two runs of the same spec and
	// binding with the same seed are byte-identical.
	Seed int64 `json:"seed"`
	// Horizon optionally overrides the binding's horizon (it must not
	// exceed it). Zero means "use the binding's".
	Horizon int `json:"horizon,omitempty"`
	// Classes are the client classes whose arrival streams superpose.
	Classes []Class `json:"classes"`
	// Events modulate rates mid-run.
	Events []Event `json:"events,omitempty"`
}

// Class is one client population with its own arrival process and
// request mix.
type Class struct {
	Name    string      `json:"name"`
	Arrival ArrivalSpec `json:"arrival"`
	Mix     MixSpec     `json:"mix"`
	// Diurnal optionally modulates the class's intensity on a daily
	// cycle.
	Diurnal *DiurnalSpec `json:"diurnal,omitempty"`
	// Pairs optionally restricts the class to a subset of the binding's
	// pairs, by index. Empty means all pairs.
	Pairs []int `json:"pairs,omitempty"`
}

// ArrivalSpec selects the interarrival-time distribution of a class.
// The process is a renewal process with the given mean rate; under
// rate modulation (diurnal cycles, events) interarrival "work" is
// rescaled through the piecewise-constant per-slot rate, which for the
// Poisson process is exactly an inhomogeneous Poisson process.
type ArrivalSpec struct {
	// Process is one of poisson, gamma, weibull.
	Process string `json:"process"`
	// RatePerSlot is the mean arrival rate per slot (requests/minute at
	// 1-minute slots) before modulation.
	RatePerSlot float64 `json:"rate_per_slot"`
	// Shape is the gamma/weibull shape parameter k (> 0): k = 1
	// recovers the exponential; k > 1 is smoother than Poisson
	// (CV < 1), k < 1 burstier. Ignored for poisson.
	Shape float64 `json:"shape,omitempty"`
}

// MixSpec is the per-class request mix: durations uniform in slots,
// demands from the paper's calibrated truncated exponential.
type MixSpec struct {
	MinDurationSlots int     `json:"min_duration_slots"`
	MaxDurationSlots int     `json:"max_duration_slots"`
	MinRateMbps      float64 `json:"min_rate_mbps"`
	MaxRateMbps      float64 `json:"max_rate_mbps"`
	MeanRateMbps     float64 `json:"mean_rate_mbps"`
	// Valuation is ρ_i for this class's requests; zero means the
	// binding's default (the environment's calibrated operating point).
	Valuation float64 `json:"valuation,omitempty"`
}

// DiurnalSpec is a sinusoidal daily intensity cycle: multiplier
// 1 + Amplitude·sin(2π·slot/PeriodSlots + φ).
type DiurnalSpec struct {
	// PeriodSlots is the cycle length (1440 at 1-minute slots).
	PeriodSlots int `json:"period_slots"`
	// Amplitude is the relative swing, in [0, 1).
	Amplitude float64 `json:"amplitude"`
	// SolarPhase keys each pair's phase to its source site's longitude
	// (slot 0 = 00:00 UTC): intensity peaks at local solar noon and
	// troughs at local midnight, so demand follows the sun across the
	// GDP grid. Requires the binding to carry sites; space-borne
	// sources use longitude 0.
	SolarPhase bool `json:"solar_phase,omitempty"`
}

// Event is a timed rate modulation, active on slots in
// [StartSlot, EndSlot] inclusive.
type Event struct {
	Kind      string `json:"kind"`
	StartSlot int    `json:"start_slot"`
	EndSlot   int    `json:"end_slot"`
	// Factor is the rate multiplier (flash_crowd, eo_burst: required,
	// > 0) or the residual weight of the darkened region
	// (regional_outage: default 0).
	Factor float64 `json:"factor,omitempty"`
	// CenterLatDeg/CenterLonDeg/RadiusKm locate a regional outage.
	CenterLatDeg float64 `json:"center_lat_deg,omitempty"`
	CenterLonDeg float64 `json:"center_lon_deg,omitempty"`
	RadiusKm     float64 `json:"radius_km,omitempty"`
	// Classes optionally restricts the event to the named classes;
	// empty means all.
	Classes []string `json:"classes,omitempty"`
}

// Parse decodes and validates a spec. Unknown fields are rejected so a
// typo'd key fails loudly instead of silently dropping a modulation, and
// so is anything but whitespace after the spec's object: a second object
// pasted after the first is not silently ignored.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("scenario: parse spec: trailing input after the spec object at byte %d", dec.InputOffset())
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Load reads and parses a spec file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		// Parse errors already carry the "scenario:" prefix; add the path.
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Validate checks everything checkable without a binding (pair indices
// are range-checked when the spec is bound to an environment).
func (s Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("scenario: spec version %d (this build reads version %d)", s.Version, SpecVersion)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	if s.Horizon < 0 {
		return fmt.Errorf("scenario: negative horizon %d", s.Horizon)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("scenario: spec %q has no classes", s.Name)
	}
	names := make(map[string]bool, len(s.Classes))
	for i, c := range s.Classes {
		if c.Name == "" {
			return fmt.Errorf("scenario: class %d has no name", i)
		}
		if names[c.Name] {
			return fmt.Errorf("scenario: duplicate class name %q", c.Name)
		}
		names[c.Name] = true
		if err := c.validate(); err != nil {
			return fmt.Errorf("scenario: class %q: %w", c.Name, err)
		}
	}
	for i, ev := range s.Events {
		if err := ev.validate(names); err != nil {
			return fmt.Errorf("scenario: event %d: %w", i, err)
		}
	}
	return nil
}

func (c Class) validate() error {
	a := c.Arrival
	switch a.Process {
	case ProcessPoisson:
	case ProcessGamma, ProcessWeibull:
		if a.Shape <= 0 || math.IsNaN(a.Shape) {
			return fmt.Errorf("%s shape must be positive, got %v", a.Process, a.Shape)
		}
	default:
		return fmt.Errorf("unknown arrival process %q (want %s, %s or %s)",
			a.Process, ProcessPoisson, ProcessGamma, ProcessWeibull)
	}
	if a.RatePerSlot <= 0 || math.IsNaN(a.RatePerSlot) {
		return fmt.Errorf("arrival rate must be positive, got %v", a.RatePerSlot)
	}
	m := c.Mix
	switch {
	case m.MinDurationSlots <= 0 || m.MaxDurationSlots < m.MinDurationSlots:
		return fmt.Errorf("bad duration range [%d,%d]", m.MinDurationSlots, m.MaxDurationSlots)
	case m.MinRateMbps <= 0 || m.MaxRateMbps < m.MinRateMbps:
		return fmt.Errorf("bad rate range [%v,%v]", m.MinRateMbps, m.MaxRateMbps)
	case m.MeanRateMbps < m.MinRateMbps || m.MeanRateMbps > m.MaxRateMbps:
		return fmt.Errorf("mean rate %v outside [%v,%v]", m.MeanRateMbps, m.MinRateMbps, m.MaxRateMbps)
	case m.Valuation < 0:
		return fmt.Errorf("negative valuation %v", m.Valuation)
	}
	if d := c.Diurnal; d != nil {
		if d.PeriodSlots <= 0 {
			return fmt.Errorf("diurnal period must be positive, got %d", d.PeriodSlots)
		}
		if d.Amplitude < 0 || d.Amplitude >= 1 {
			return fmt.Errorf("diurnal amplitude %v outside [0,1)", d.Amplitude)
		}
	}
	for _, p := range c.Pairs {
		if p < 0 {
			return fmt.Errorf("negative pair index %d", p)
		}
	}
	return nil
}

func (ev Event) validate(classNames map[string]bool) error {
	if ev.StartSlot < 0 || ev.EndSlot < ev.StartSlot {
		return fmt.Errorf("bad window [%d,%d]", ev.StartSlot, ev.EndSlot)
	}
	switch ev.Kind {
	case EventFlashCrowd, EventEOBurst:
		if ev.Factor <= 0 || math.IsNaN(ev.Factor) {
			return fmt.Errorf("%s factor must be positive, got %v", ev.Kind, ev.Factor)
		}
	case EventRegionalOutage:
		if !(ev.RadiusKm > 0) {
			return fmt.Errorf("outage radius must be positive, got %v", ev.RadiusKm)
		}
		if !(ev.CenterLatDeg >= -90 && ev.CenterLatDeg <= 90) || !(ev.CenterLonDeg >= -180 && ev.CenterLonDeg <= 180) {
			return fmt.Errorf("outage centre (%v, %v) outside lat [-90, 90], lon [-180, 180]", ev.CenterLatDeg, ev.CenterLonDeg)
		}
		if ev.Factor < 0 || ev.Factor >= 1 || math.IsNaN(ev.Factor) {
			return fmt.Errorf("outage factor %v outside [0,1)", ev.Factor)
		}
	default:
		return fmt.Errorf("unknown event kind %q (want %s, %s or %s)",
			ev.Kind, EventFlashCrowd, EventRegionalOutage, EventEOBurst)
	}
	for _, name := range ev.Classes {
		if !classNames[name] {
			return fmt.Errorf("references unknown class %q", name)
		}
	}
	return nil
}

// appliesTo reports whether the event modulates the named class.
func (ev Event) appliesTo(class string) bool {
	if len(ev.Classes) == 0 {
		return true
	}
	for _, name := range ev.Classes {
		if name == class {
			return true
		}
	}
	return false
}

// active reports whether the event covers the slot.
func (ev Event) active(slot int) bool {
	return slot >= ev.StartSlot && slot <= ev.EndSlot
}

// EventTimeline renders the events compactly for SUMMARY lines and
// reports: "flash_crowd[40-60]x3(web)".
func (s Spec) EventTimeline() []string {
	out := make([]string, 0, len(s.Events))
	for _, ev := range s.Events {
		line := fmt.Sprintf("%s[%d-%d]", ev.Kind, ev.StartSlot, ev.EndSlot)
		switch ev.Kind {
		case EventRegionalOutage:
			line += fmt.Sprintf("@(%.1f,%.1f)r%.0fkm", ev.CenterLatDeg, ev.CenterLonDeg, ev.RadiusKm)
			if ev.Factor > 0 {
				line += fmt.Sprintf("x%g", ev.Factor)
			}
		default:
			line += fmt.Sprintf("x%g", ev.Factor)
		}
		if len(ev.Classes) > 0 {
			line += "(" + strings.Join(ev.Classes, ",") + ")"
		}
		out = append(out, line)
	}
	return out
}
