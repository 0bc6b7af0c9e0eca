// Command constellation inspects the simulated LSN topology: satellite
// positions, coverage statistics, eclipse cycles, ISL geometry and
// ground-site visibility — useful for validating the substrate before
// running experiments. With -svg it also renders the slot as a
// standalone SVG map: satellite sub-points coloured by battery health
// (after -load requests/min of simulated CEAR load, if given), ground
// sites, the +Grid ISL fabric, and the min-price path of a sample
// request.
//
// Usage:
//
//	constellation [-scale small|medium|full] [-slot N] [-site "lat,lon"] [-svg FILE [-load R]]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"spacebooking"
	"spacebooking/internal/buildinfo"
	"spacebooking/internal/core"
	"spacebooking/internal/geo"
	"spacebooking/internal/grid"
	"spacebooking/internal/netstate"
	"spacebooking/internal/sim"
	"spacebooking/internal/topology"
	"spacebooking/internal/viz"
	"spacebooking/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("constellation", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "small", "scale: small, medium or full")
	slot := fs.Int("slot", 0, "time slot to inspect")
	siteSpec := fs.String("site", "40.7,-74.0", "ground site as \"lat,lon\" for visibility report")
	svgOut := fs.String("svg", "", "also write an SVG map of the slot to this file")
	load := fs.Float64("load", 0, "requests/min of simulated load before the -svg snapshot (needs -svg; 0 = pristine)")
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, buildinfo.Line("constellation"))
		return 0
	}
	if fs.NArg() > 0 || (*load != 0 && *svgOut == "") {
		fs.Usage()
		return 2
	}
	scale, err := spacebooking.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintf(stderr, "constellation: %v\n", err)
		return 1
	}
	// Checked against the preset, before the constellation is built.
	if h := scale.Horizon(); *slot < 0 || *slot >= h || *load < 0 {
		fmt.Fprintf(stderr, "constellation: -slot %d must lie in the %s horizon [0,%d) and -load %v must not be negative\n",
			*slot, scale, h, *load)
		fs.Usage()
		return 2
	}
	if err := inspect(stdout, scale, *slot, *siteSpec, *svgOut, *load); err != nil {
		fmt.Fprintf(stderr, "constellation: %v\n", err)
		return 1
	}
	return 0
}

// inspect prints the topology report for one slot and, when svgOut is
// set, writes that slot's map.
func inspect(out io.Writer, scale spacebooking.Scale, slot int, siteSpec, svgOut string, load float64) error {
	lat, lon, err := parseSite(siteSpec)
	if err != nil {
		return err
	}

	start := time.Now()
	env, err := spacebooking.NewEnvironment(spacebooking.EnvConfig{Scale: scale})
	if err != nil {
		return err
	}
	prov := env.Provider
	cfg := prov.Config()

	fmt.Fprintf(out, "constellation: %d planes x %d satellites = %d total\n",
		cfg.Walker.Planes, cfg.Walker.SatsPerPlane, prov.NumSats())
	fmt.Fprintf(out, "orbit: %.0f km altitude, %.0f deg inclination, period %.1f min\n",
		cfg.Walker.AltitudeKm, cfg.Walker.InclinationDeg,
		prov.Satellites()[0].Elements.PeriodSeconds()/60)
	fmt.Fprintf(out, "links: ISL %.0f Mbps, USL %.0f Mbps, elevation mask %.0f deg\n",
		cfg.ISLCapacityMbps, cfg.USLCapacityMbps, cfg.MinElevationDeg)
	fmt.Fprintf(out, "horizon: %d slots x %.0f s; %d ground sites; %d EO satellites\n\n",
		prov.Horizon(), cfg.SlotSeconds, prov.NumSites(), prov.NumEO())

	// Eclipse statistics at the chosen slot.
	lit := 0
	for sat := 0; sat < prov.NumSats(); sat++ {
		if prov.Sunlit(slot, sat) {
			lit++
		}
	}
	fmt.Fprintf(out, "slot %d: %d/%d satellites sunlit (%.1f%%)\n",
		slot, lit, prov.NumSats(), 100*float64(lit)/float64(prov.NumSats()))

	// ISL length statistics. The provider computes positions on demand:
	// take the slot's once (they serve the visibility report below too,
	// whose provider propagates the same constellation).
	pos := make([]geo.Vec3, prov.NumSats())
	for sat := range pos {
		pos[sat] = prov.SatPosECEF(slot, sat)
	}
	minLen, maxLen, sum, count := 1e18, 0.0, 0.0, 0
	for sat := 0; sat < prov.NumSats(); sat++ {
		for _, n := range prov.ISLNeighbors(sat) {
			if n < sat {
				continue
			}
			d := pos[sat].DistanceTo(pos[n])
			minLen = min(minLen, d)
			maxLen = max(maxLen, d)
			sum += d
			count++
		}
	}
	fmt.Fprintf(out, "ISLs: %d undirected, length min/mean/max = %.0f/%.0f/%.0f km\n",
		count, minLen, sum/float64(count), maxLen)

	// Visibility from the requested ground point over the horizon.
	tmpSite := grid.Site{ID: 0, LatDeg: lat, LonDeg: lon}
	ep := topology.Endpoint{Kind: topology.EndpointGround, Index: 0}
	visProv, err := topology.NewProvider(cfg, []grid.Site{tmpSite}, nil, ep)
	if err != nil {
		return err
	}
	covered, total, best := 0, 0, 0
	for t := 0; t < visProv.Horizon(); t++ {
		vis, err := visProv.VisibleSats(ep, t)
		if err != nil {
			return err
		}
		total++
		if len(vis) > 0 {
			covered++
		}
		best = max(best, len(vis))
	}
	fmt.Fprintf(out, "\nsite (%.2f, %.2f): covered %d/%d slots (%.1f%%), max %d satellites in view\n",
		lat, lon, covered, total, 100*float64(covered)/float64(total), best)

	vis, err := visProv.VisibleSats(ep, slot)
	if err != nil {
		return err
	}
	obs := geo.LLAToECEF(geo.LLA{LatDeg: lat, LonDeg: lon})
	fmt.Fprintf(out, "slot %d: %d satellites visible\n", slot, len(vis))
	for _, sat := range vis {
		fmt.Fprintf(out, "  sat %4d  elevation %5.1f deg  range %6.0f km  sunlit %v\n",
			sat, geo.ElevationDeg(obs, pos[sat]), obs.DistanceTo(pos[sat]), visProv.Sunlit(slot, sat))
	}

	if svgOut != "" {
		fmt.Fprintln(out)
		if err := writeMap(out, env, scale, slot, svgOut, load); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// writeMap renders slot as an SVG map into path: CEAR prices a fresh
// state (after load requests/min of simulated requests, if load > 0) and
// routes one sample request whose path the map highlights.
func writeMap(out io.Writer, env *spacebooking.Environment, scale spacebooking.Scale, slot int, path string, load float64) error {
	prov := env.Provider
	state, err := netstate.New(prov, spacebooking.PaperEnergyConfig())
	if err != nil {
		return err
	}
	params, err := spacebooking.PaperPricing()
	if err != nil {
		return err
	}
	cear, err := core.New(state, core.Options{Pricing: params})
	if err != nil {
		return err
	}
	if load > 0 {
		reqs, err := workload.Generate(env.WorkloadConfig(load, 101))
		if err != nil {
			return err
		}
		accepted := 0
		for _, r := range reqs {
			d, err := cear.Handle(r)
			if err != nil {
				return err
			}
			if d.Accepted {
				accepted++
			}
		}
		fmt.Fprintf(out, "simulated load: %d/%d requests accepted\n", accepted, len(reqs))
	}

	m := viz.NewMap(fmt.Sprintf("LSN snapshot — %s scale, slot %d (%s %s)",
		scale, slot, sim.AlgCEAR, "pricing state"))

	// ISLs first (underneath), for a subset to keep full scale legible.
	stride := 1
	if prov.NumSats() > 400 {
		stride = 4
	}
	subpoints := make([]geo.LLA, prov.NumSats())
	for sat := range subpoints {
		subpoints[sat] = geo.ECEFToLLA(prov.SatPosECEF(slot, sat))
	}
	subpoint := func(sat int) (float64, float64) {
		return subpoints[sat].LatDeg, subpoints[sat].LonDeg
	}
	for sat := 0; sat < prov.NumSats(); sat += stride {
		la1, lo1 := subpoint(sat)
		for _, n := range prov.ISLNeighbors(sat) {
			if n < sat {
				continue
			}
			la2, lo2 := subpoint(n)
			m.AddLink(la1, lo1, la2, lo2, "#233057", 0.3)
		}
	}

	// Satellites coloured by battery depletion at the snapshot slot.
	for sat := 0; sat < prov.NumSats(); sat++ {
		la, lo := subpoint(sat)
		depletion := state.Battery(sat).UtilizationAt(slot)
		m.AddSatellite(la, lo, prov.Sunlit(slot, sat), viz.HeatRamp(depletion))
	}

	// Ground sites.
	for _, s := range env.Sites {
		m.AddSite(s.LatDeg, s.LonDeg, "#2e8b57")
	}

	// One sample request path at the snapshot slot.
	pair := env.Pairs[0]
	req := workload.Request{
		ID: 1 << 20, Src: pair.Src, Dst: pair.Dst,
		StartSlot: slot, EndSlot: slot,
		RateMbps: 1000, Valuation: env.DefaultValuation(),
	}
	d, err := cear.Handle(req)
	if err != nil {
		return err
	}
	if d.Accepted {
		path := d.Plan.Paths[0].Path
		src := env.Sites[pair.Src.Index]
		dst := env.Sites[pair.Dst.Index]
		prevLat, prevLon := src.LatDeg, src.LonDeg
		for _, n := range path.Nodes[1 : len(path.Nodes)-1] {
			la, lo := subpoint(n)
			m.AddLink(prevLat, prevLon, la, lo, "#ffd24d", 1.2)
			prevLat, prevLon = la, lo
		}
		m.AddLink(prevLat, prevLon, dst.LatDeg, dst.LonDeg, "#ffd24d", 1.2)
		m.AddLabel(src.LatDeg, src.LonDeg, "src", "#ffd24d")
		m.AddLabel(dst.LatDeg, dst.LonDeg, "dst", "#ffd24d")
		fmt.Fprintf(out, "sample request routed over %d hops at price %.4g\n", path.Hops(), d.Price)
	} else {
		fmt.Fprintf(out, "sample request rejected: %s\n", d.Reason)
	}

	svg := m.Render([]viz.Legend{
		{Color: "#2e8b57", Text: "ground site"},
		{Color: viz.HeatRamp(0), Text: "satellite (full battery)"},
		{Color: viz.HeatRamp(1), Text: "satellite (depleted)"},
		{Color: "#444466", Text: "in umbra"},
		{Color: "#ffd24d", Text: "sample reserved path"},
	})
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d elements)\n", path, m.NumElements())
	return nil
}

func parseSite(spec string) (lat, lon float64, err error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad site %q, want \"lat,lon\"", spec)
	}
	lat, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad latitude: %w", err)
	}
	lon, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad longitude: %w", err)
	}
	if lat < -90 || lat > 90 || lon < -180 || lon > 180 {
		return 0, 0, fmt.Errorf("site (%v,%v) out of range", lat, lon)
	}
	return lat, lon, nil
}
