package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"spacebooking/internal/geo"
	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
	"spacebooking/internal/viz"
)

// Hot-spot telemetry endpoints. Everything served here derives from
// three thread-safe sources only: the mutex-guarded top-K trackers in
// the obs registry, the frozen topology provider's geometry, and the
// server's atomic stat mirrors. The engine's mutable state (link
// ledgers, batteries) is owned by the single-writer engine goroutine
// and is never touched from an HTTP handler.

// Tracker names the serving layer reads back out of the registry. They
// must match what netstate.EnableHotspots and sim.NewEngine register.
const (
	trackerLinkRejections    = "netstate.hotspots.link_rejections"
	trackerLinkUtil          = "netstate.hotspots.link_util"
	trackerBatteryRejections = "energy.hotspots.battery_rejections"
	trackerBatteryDoD        = "energy.hotspots.battery_dod"
	trackerSrcAccepted       = "sim.hotspots.src_accepted"
	trackerSrcRejected       = "sim.hotspots.src_rejected"
)

// HotspotsResponse is the body of GET /v1/hotspots: the ranked hot
// entities plus the aggregate rejection counters the per-entity counts
// reconcile against.
type HotspotsResponse struct {
	Enabled       bool    `json:"enabled"`
	Slot          int     `json:"slot"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// RejectedCongested / RejectedDepleted are the aggregate counters;
	// the totals of Links / Batteries sum exactly to them.
	RejectedCongested int64            `json:"rejected_congested"`
	RejectedDepleted  int64            `json:"rejected_depleted"`
	Links             obs.TopKSnapshot `json:"links"`
	LinkUtilization   obs.TopKSnapshot `json:"link_utilization"`
	Batteries         obs.TopKSnapshot `json:"batteries"`
	BatteryDoD        obs.TopKSnapshot `json:"battery_dod"`
	SrcAccepted       obs.TopKSnapshot `json:"src_accepted"`
	SrcRejected       obs.TopKSnapshot `json:"src_rejected"`
}

// hotspotsEnabled reports whether the run was configured with
// per-entity tracking.
func (s *Server) hotspotsEnabled() bool {
	return s.cfg.Run.HotspotK > 0 && s.cfg.Run.Obs != nil
}

// HotspotsSnapshot assembles the response from one registry snapshot.
// Exported for spaced's drain-time summary.
func (s *Server) HotspotsSnapshot() HotspotsResponse {
	snap := s.cfg.Run.Obs.Snapshot()
	return HotspotsResponse{
		Enabled:           s.hotspotsEnabled(),
		Slot:              int(s.statSlot.Load()),
		UptimeSeconds:     s.now().Sub(s.started).Seconds(),
		RejectedCongested: snap.Counters["sim.requests.rejected_congested"],
		RejectedDepleted:  snap.Counters["sim.requests.rejected_depleted"],
		Links:             snap.TopK[trackerLinkRejections],
		LinkUtilization:   snap.TopK[trackerLinkUtil],
		Batteries:         snap.TopK[trackerBatteryRejections],
		BatteryDoD:        snap.TopK[trackerBatteryDoD],
		SrcAccepted:       snap.TopK[trackerSrcAccepted],
		SrcRejected:       snap.TopK[trackerSrcRejected],
	}
}

// handleHotspots serves GET /v1/hotspots.
func (s *Server) handleHotspots(w http.ResponseWriter, r *http.Request) {
	writeIndentedJSON(w, http.StatusOK, s.HotspotsSnapshot())
}

// ConstellationSat is one satellite sub-point with its tracked heat.
type ConstellationSat struct {
	ID     int     `json:"id"`
	LatDeg float64 `json:"lat_deg"`
	LonDeg float64 `json:"lon_deg"`
	Sunlit bool    `json:"sunlit"`
	// DoD is the tracked depth-of-discharge in [0,1], or -1 when the
	// battery is not among the top-K tracked entries.
	DoD float64 `json:"dod"`
}

// ConstellationLink is one tracked hot link with endpoint geometry.
type ConstellationLink struct {
	From       int     `json:"from"`
	To         int     `json:"to"`
	Util       float64 `json:"util"`
	Rejections float64 `json:"rejections"`
	// Endpoint sub-points at the snapshot slot; ISLs only (a -1 From/To
	// latitude pair never happens — non-ISL entries are filtered out).
	FromLatDeg float64 `json:"from_lat_deg"`
	FromLonDeg float64 `json:"from_lon_deg"`
	ToLatDeg   float64 `json:"to_lat_deg"`
	ToLonDeg   float64 `json:"to_lon_deg"`
}

// ConstellationSite is one ground site of the tiling.
type ConstellationSite struct {
	ID     int     `json:"id"`
	LatDeg float64 `json:"lat_deg"`
	LonDeg float64 `json:"lon_deg"`
	Weight float64 `json:"weight"`
}

// ConstellationResponse is the body of GET /debug/constellation.json:
// the whole scene a dashboard needs to paint heat onto the map.
type ConstellationResponse struct {
	Enabled    bool                `json:"enabled"`
	Slot       int                 `json:"slot"`
	Horizon    int                 `json:"horizon"`
	Satellites []ConstellationSat  `json:"satellites"`
	HotLinks   []ConstellationLink `json:"hot_links"`
	Sites      []ConstellationSite `json:"sites"`
}

// snapshotSlot clamps the engine's last-admitted slot into the
// provider's horizon for geometry lookups (-1 before the first
// admission maps to slot 0).
func (s *Server) snapshotSlot() int {
	slot := int(s.statSlot.Load())
	if slot < 0 {
		slot = 0
	}
	if slot >= s.horizon {
		slot = s.horizon - 1
	}
	return slot
}

// constellationSnapshot builds the dashboard scene.
func (s *Server) constellationSnapshot() ConstellationResponse {
	prov := s.cfg.Provider
	slot := s.snapshotSlot()
	snap := s.cfg.Run.Obs.Snapshot()

	resp := ConstellationResponse{
		Enabled: s.hotspotsEnabled(),
		Slot:    slot,
		Horizon: s.horizon,
	}

	dod := make(map[int]float64, len(snap.TopK[trackerBatteryDoD].Entries))
	for _, e := range snap.TopK[trackerBatteryDoD].Entries {
		dod[int(e.Key)] = e.Value
	}
	numSats := prov.NumSats()
	resp.Satellites = make([]ConstellationSat, numSats)
	for sat := 0; sat < numSats; sat++ {
		lla := geo.ECEFToLLA(prov.SatPosECEF(slot, sat))
		cs := ConstellationSat{
			ID:     sat,
			LatDeg: lla.LatDeg,
			LonDeg: lla.LonDeg,
			Sunlit: prov.Sunlit(slot, sat),
			DoD:    -1,
		}
		if v, ok := dod[sat]; ok {
			cs.DoD = v
		}
		resp.Satellites[sat] = cs
	}

	rejByLink := make(map[uint64]float64, len(snap.TopK[trackerLinkRejections].Entries))
	for _, e := range snap.TopK[trackerLinkRejections].Entries {
		rejByLink[e.Key] = e.Value
	}
	for _, e := range snap.TopK[trackerLinkUtil].Entries {
		key := netstate.LinkKey(e.Key)
		from, to := key.From(), key.To()
		if from >= numSats || to >= numSats {
			continue // USL: one end is not a satellite, no stable geometry
		}
		fl := resp.Satellites[from]
		tl := resp.Satellites[to]
		resp.HotLinks = append(resp.HotLinks, ConstellationLink{
			From:       from,
			To:         to,
			Util:       e.Value,
			Rejections: rejByLink[e.Key],
			FromLatDeg: fl.LatDeg,
			FromLonDeg: fl.LonDeg,
			ToLatDeg:   tl.LatDeg,
			ToLonDeg:   tl.LonDeg,
		})
	}

	sites := prov.Sites()
	resp.Sites = make([]ConstellationSite, len(sites))
	for i, site := range sites {
		resp.Sites[i] = ConstellationSite{
			ID:     site.ID,
			LatDeg: site.LatDeg,
			LonDeg: site.LonDeg,
			Weight: site.Weight,
		}
	}
	return resp
}

// handleConstellation serves GET /debug/constellation.json.
func (s *Server) handleConstellation(w http.ResponseWriter, r *http.Request) {
	writeIndentedJSON(w, http.StatusOK, s.constellationSnapshot())
}

// handleMapSVG serves GET /debug/map.svg: the live constellation scene
// rendered with internal/viz — sites, satellite sub-points (heat ramp
// by tracked depth-of-discharge), and the tracked hot links (heat ramp
// and stroke width by utilization).
func (s *Server) handleMapSVG(w http.ResponseWriter, r *http.Request) {
	c := s.constellationSnapshot()
	m := viz.NewMap(fmt.Sprintf("spaced live constellation — slot %d/%d, alg %s",
		c.Slot, c.Horizon, s.Algorithm()))
	for _, site := range c.Sites {
		m.AddSite(site.LatDeg, site.LonDeg, "#2e8b57")
	}
	for _, l := range c.HotLinks {
		m.AddLink(l.FromLatDeg, l.FromLonDeg, l.ToLatDeg, l.ToLonDeg,
			viz.HeatRamp(l.Util), 0.6+1.8*l.Util)
	}
	for _, sat := range c.Satellites {
		color := "#7f8cff"
		if sat.DoD >= 0 {
			color = viz.HeatRamp(sat.DoD)
		}
		m.AddSatellite(sat.LatDeg, sat.LonDeg, sat.Sunlit, color)
	}
	legends := []viz.Legend{
		{Color: "#2e8b57", Text: "ground site"},
		{Color: "#7f8cff", Text: "satellite (untracked)"},
		{Color: viz.HeatRamp(1), Text: "hot (DoD / utilization)"},
	}
	body := m.Render(legends)
	w.Header().Set("Content-Type", "image/svg+xml")
	_, _ = io.WriteString(w, body)
}

// handleDash serves GET /debug/dash: a self-refreshing HTML view that
// re-fetches the live map and hot-spot rankings every two seconds. All
// rendering happens client-side against /debug/map.svg and
// /v1/hotspots; the page itself is static.
func (s *Server) handleDash(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = io.WriteString(w, dashHTML)
}

const dashHTML = `<!DOCTYPE html>
<html><head><title>spaced dashboard</title>
<style>
body { background:#0b1026; color:#c8c8e8; font-family:monospace; margin:12px; }
h1 { font-size:14px; color:#e8e8ff; }
table { border-collapse:collapse; margin:6px 0 14px; }
td, th { padding:2px 10px; text-align:left; font-size:12px; border-bottom:1px solid #1c2447; }
th { color:#8f9cff; }
.cols { display:flex; gap:24px; flex-wrap:wrap; align-items:flex-start; }
img { width:720px; max-width:100%; border:1px solid #1c2447; }
#meta { font-size:12px; color:#8f9cff; }
</style></head><body>
<h1>spaced live constellation dashboard</h1>
<div id="meta">loading&hellip;</div>
<img id="map" src="/debug/map.svg" alt="constellation map"/>
<div class="cols">
  <div><h1>hot links (rejections)</h1><table id="links"></table></div>
  <div><h1>hot batteries (rejections)</h1><table id="batteries"></table></div>
  <div><h1>hot source cells (rejected)</h1><table id="cells"></table></div>
</div>
<script>
function fill(id, entries, valHeader) {
  var t = document.getElementById(id);
  var html = '<tr><th>entity</th><th>' + valHeader + '</th></tr>';
  (entries || []).slice(0, 10).forEach(function (e) {
    html += '<tr><td>' + (e.label || e.key) + '</td><td>' + e.value.toFixed(2) + '</td></tr>';
  });
  t.innerHTML = html;
}
function refresh() {
  fetch('/v1/hotspots').then(function (r) { return r.json(); }).then(function (h) {
    document.getElementById('meta').textContent =
      'slot ' + h.slot + ' · uptime ' + h.uptime_seconds.toFixed(0) + 's' +
      ' · rejected congested ' + h.rejected_congested +
      ' · rejected depleted ' + h.rejected_depleted +
      (h.enabled ? '' : ' · hot-spot tracking DISABLED');
    fill('links', h.links.entries, 'rejections');
    fill('batteries', h.batteries.entries, 'rejections');
    fill('cells', h.src_rejected.entries, 'rejected');
  });
  document.getElementById('map').src = '/debug/map.svg?t=' + Date.now();
}
refresh();
setInterval(refresh, 2000);
</script>
</body></html>
`

// SummarizeHotspots prints a compact drain-time digest of the ranked
// trackers (top five per table), for spaced's shutdown log.
func SummarizeHotspots(h HotspotsResponse, out io.Writer) {
	if !h.Enabled {
		fmt.Fprintln(out, "hotspots: disabled")
		return
	}
	line := func(name string, tk obs.TopKSnapshot) {
		var b strings.Builder
		for i, e := range tk.Entries {
			if i >= 5 {
				break
			}
			if i > 0 {
				b.WriteString(", ")
			}
			label := e.Label
			if label == "" {
				label = fmt.Sprint(e.Key)
			}
			fmt.Fprintf(&b, "%s=%.0f", label, e.Value)
		}
		fmt.Fprintf(out, "hotspots: %s total=%.0f top=[%s]\n", name, tk.Total, b.String())
	}
	line("link_rejections", h.Links)
	line("battery_rejections", h.Batteries)
	line("src_rejected", h.SrcRejected)
}
