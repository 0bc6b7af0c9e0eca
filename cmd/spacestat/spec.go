package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"spacebooking/internal/scenario"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// runSpec is `spacestat spec`: each spec validated and summarised, and
// with -servers checked against its Erlang-B twin.
func runSpec(c *cmd, args []string) int {
	servers := c.fs.Int("servers", 0, "validate Erlang-B blocking against an m-server loss simulation (0 = skip)")
	horizon := c.fs.Int("horizon", 0, "horizon in slots for the Erlang-B loss simulation (0 = the spec's, which must then be set)")
	jsonOut := c.fs.Bool("json", false, "emit the summary as JSON")
	if !c.parse(args, 1, -1) {
		return 2
	}
	if *servers < 0 || *horizon < 0 {
		return c.fail(2, fmt.Errorf("-servers %d and -horizon %d must not be negative", *servers, *horizon))
	}
	exit := 0
	for _, path := range c.fs.Args() {
		if err := summarizeSpec(c.stdout, path, *servers, *horizon, *jsonOut); err != nil {
			exit = c.fail(1, err)
		}
	}
	return exit
}

// specSummary is the machine-readable form of one spec's report.
type specSummary struct {
	Path     string                  `json:"path"`
	Name     string                  `json:"name"`
	Version  int                     `json:"version"`
	Seed     int64                   `json:"seed"`
	Horizon  int                     `json:"horizon,omitempty"`
	Classes  []classSummary          `json:"classes"`
	Events   []string                `json:"events,omitempty"`
	Rate     float64                 `json:"total_rate_per_slot"`
	ErlangB  *scenario.ErlangBReport `json:"erlang_b,omitempty"`
	Stations bool                    `json:"stationary"`
}

type classSummary struct {
	Name        string  `json:"name"`
	Process     string  `json:"process"`
	RatePerSlot float64 `json:"rate_per_slot"`
	Shape       float64 `json:"shape,omitempty"`
	MinDur      int     `json:"min_duration_slots"`
	MaxDur      int     `json:"max_duration_slots"`
	MeanRate    float64 `json:"mean_rate_mbps"`
	Valuation   float64 `json:"valuation,omitempty"`
	Pairs       []int   `json:"pairs,omitempty"`
	Diurnal     string  `json:"diurnal,omitempty"`
}

func summarizeSpec(w io.Writer, path string, servers, horizon int, jsonOut bool) error {
	spec, err := scenario.Load(path)
	if err != nil {
		return err
	}
	s := specSummary{
		Path: path, Name: spec.Name, Version: spec.Version,
		Seed: spec.Seed, Horizon: spec.Horizon,
		Events:   spec.EventTimeline(),
		Stations: len(spec.Events) == 0,
	}
	for _, c := range spec.Classes {
		cs := classSummary{
			Name: c.Name, Process: c.Arrival.Process,
			RatePerSlot: c.Arrival.RatePerSlot, Shape: c.Arrival.Shape,
			MinDur: c.Mix.MinDurationSlots, MaxDur: c.Mix.MaxDurationSlots,
			MeanRate: c.Mix.MeanRateMbps, Valuation: c.Mix.Valuation,
			Pairs: c.Pairs,
		}
		if d := c.Diurnal; d != nil {
			cs.Diurnal = fmt.Sprintf("period %d amplitude %g", d.PeriodSlots, d.Amplitude)
			if d.SolarPhase {
				cs.Diurnal += " solar-phased"
			}
			s.Stations = false
		}
		s.Rate += c.Arrival.RatePerSlot
		s.Classes = append(s.Classes, cs)
	}

	if servers > 0 {
		rep, err := validateErlangB(spec, servers, horizon)
		if err != nil {
			return err
		}
		s.ErlangB = &rep
	}

	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			return err
		}
	} else {
		printSpec(w, s)
	}
	if s.ErlangB != nil && !s.ErlangB.Pass {
		return fmt.Errorf("%s: erlang-b validation failed: %s", path, s.ErlangB)
	}
	return nil
}

// validateErlangB runs the analytical twin on a synthetic one-pair
// binding: pair identity never influences blocking, only the arrival
// process and holding times do.
func validateErlangB(spec scenario.Spec, servers, horizon int) (scenario.ErlangBReport, error) {
	b := scenario.Binding{
		Horizon: horizon,
		Pairs: []workload.Pair{{
			Src: topology.Endpoint{Kind: topology.EndpointGround, Index: 0},
			Dst: topology.Endpoint{Kind: topology.EndpointGround, Index: 1},
		}},
		DefaultValuation: 1,
	}
	if b.Horizon == 0 {
		b.Horizon = spec.Horizon
	}
	if b.Horizon == 0 {
		return scenario.ErlangBReport{}, fmt.Errorf("erlang-b validation needs a horizon (spec has none; pass -horizon)")
	}
	return scenario.ValidateErlangB(spec, b, servers)
}

func printSpec(w io.Writer, s specSummary) {
	fmt.Fprintf(w, "spec %s (version %d, seed %d", s.Name, s.Version, s.Seed)
	if s.Horizon > 0 {
		fmt.Fprintf(w, ", horizon %d", s.Horizon)
	}
	fmt.Fprintf(w, ")\n")
	fmt.Fprintf(w, "  total arrival rate %.4g/slot, %d classes\n", s.Rate, len(s.Classes))
	for _, c := range s.Classes {
		line := fmt.Sprintf("  class %-12s %s", c.Name, c.Process)
		if c.Shape > 0 && c.Process != scenario.ProcessPoisson {
			line += fmt.Sprintf("(k=%g)", c.Shape)
		}
		line += fmt.Sprintf(" rate %.4g/slot, dur [%d,%d], mean %.4g Mbps", c.RatePerSlot, c.MinDur, c.MaxDur, c.MeanRate)
		if c.Valuation > 0 {
			line += fmt.Sprintf(", valuation %.3g", c.Valuation)
		}
		if len(c.Pairs) > 0 {
			line += fmt.Sprintf(", pairs %v", c.Pairs)
		}
		if c.Diurnal != "" {
			line += ", diurnal " + c.Diurnal
		}
		fmt.Fprintln(w, line)
	}
	if len(s.Events) > 0 {
		fmt.Fprintf(w, "  events: %s\n", strings.Join(s.Events, " "))
	}
	if s.ErlangB != nil {
		fmt.Fprintf(w, "  %s\n", s.ErlangB)
	}
}
