package server

import (
	"fmt"
	"io"
	"strings"

	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
	"spacebooking/internal/sim"
)

// SummarizeHotspots prints a compact drain-time digest of a registry
// snapshot's top-K trackers (top five per table), for spaced's shutdown
// log. A snapshot without trackers prints one "disabled" line.
func SummarizeHotspots(topk map[string]obs.TopKSnapshot, out io.Writer) {
	if len(topk) == 0 {
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
	line("link_rejections", topk[netstate.TrackerLinkRejections])
	line("battery_rejections", topk[netstate.TrackerBatteryRejections])
	line("src_rejected", topk[sim.TrackerSrcRejected])
}
