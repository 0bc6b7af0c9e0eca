package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
	"spacebooking/internal/server"
	"spacebooking/internal/sim"
)

// runTop is `spacestat top`: a live view of a daemon's hot spots.
func runTop(c *cmd, args []string) int {
	addr := c.fs.String("addr", "http://127.0.0.1:8080", "base URL of the spaced daemon")
	interval := c.fs.Duration("interval", 2*time.Second, "poll interval")
	topN := c.fs.Int("n", 10, "rows per table")
	once := c.fs.Bool("once", false, "print one snapshot and exit (no screen clearing)")
	if !c.parse(args, 0, 0) {
		return 2
	}
	if *topN < 1 {
		return c.fail(1, fmt.Errorf("-n %d must be positive", *topN))
	}
	if *interval <= 0 {
		return c.fail(1, fmt.Errorf("-interval %v must be positive", *interval))
	}

	client := &http.Client{Timeout: 10 * time.Second}
	base := strings.TrimRight(*addr, "/")

	cur, err := poll(client, base)
	if err != nil {
		return c.fail(1, err)
	}
	if *once {
		render(c.stdout, cur, nil, *topN, false)
		return 0
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	render(c.stdout, cur, nil, *topN, true)
	prev := cur
	for {
		select {
		case <-sig:
			fmt.Fprintln(c.stdout)
			return 0
		case <-ticker.C:
			next, err := poll(client, base)
			if err != nil {
				// A draining/restarting daemon is normal; keep the last
				// frame and note the error below it.
				fmt.Fprintf(c.stdout, "\n%s: %v (retrying)\n", c.fs.Name(), err)
				continue
			}
			render(c.stdout, next, &prev, *topN, true)
			prev = next
		}
	}
}

// frame is one poll of the daemon: the service header from /v1/stats and
// the registry from /metrics.json.
type frame struct {
	stats server.Stats
	reg   obs.RegistrySnapshot
}

// poll fetches one frame.
func poll(client *http.Client, base string) (frame, error) {
	stats, err := fetch[server.Stats](client, base+"/v1/stats")
	if err != nil {
		return frame{}, err
	}
	reg, err := fetch[obs.RegistrySnapshot](client, base+"/metrics.json")
	if err != nil {
		return frame{}, err
	}
	return frame{stats: stats, reg: reg}, nil
}

// fetch GETs url and decodes its JSON body.
func fetch[T any](client *http.Client, url string) (T, error) {
	var v T
	resp, err := client.Get(url)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("GET %s: decode: %w", url, err)
	}
	return v, nil
}

// valuesByKey indexes a tracker snapshot for the delta column.
func valuesByKey(tk obs.TopKSnapshot) map[uint64]float64 {
	m := make(map[uint64]float64, len(tk.Entries))
	for _, e := range tk.Entries {
		m[e.Key] = e.Value
	}
	return m
}

// render paints one frame. prev, when non-nil, supplies the previous
// frame so each row shows its delta over the poll interval.
func render(out io.Writer, f frame, prev *frame, topN int, clear bool) {
	if clear {
		// ANSI: home cursor + clear screen, so unchanged rows repaint in
		// place instead of scrolling.
		fmt.Fprint(out, "\x1b[H\x1b[2J")
	}
	topk := f.reg.TopK
	fmt.Fprintf(out, "spacetop — slot %d, uptime %.0fs", f.stats.Slot, f.stats.UptimeSeconds)
	if _, ok := topk[netstate.TrackerLinkRejections]; !ok {
		fmt.Fprint(out, "  [hot-spot tracking DISABLED on the daemon]")
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "rejections: congested %d (per-link total %.0f), depleted %d (per-battery total %.0f)\n\n",
		f.reg.Counters["sim.requests.rejected_congested"], topk[netstate.TrackerLinkRejections].Total,
		f.reg.Counters["sim.requests.rejected_depleted"], topk[netstate.TrackerBatteryRejections].Total)

	sections := []struct{ title, tracker, valFmt string }{
		{"HOT LINKS (congestion rejections)", netstate.TrackerLinkRejections, "%.0f"},
		{"LINK UTILIZATION (max committed)", netstate.TrackerLinkUtil, "%.3f"},
		{"HOT BATTERIES (depletion rejections)", netstate.TrackerBatteryRejections, "%.0f"},
		{"BATTERY DEPTH-OF-DISCHARGE (max committed)", netstate.TrackerBatteryDoD, "%.3f"},
		{"SOURCE CELLS (rejected)", sim.TrackerSrcRejected, "%.0f"},
		{"SOURCE CELLS (accepted)", sim.TrackerSrcAccepted, "%.0f"},
	}
	for _, sec := range sections {
		// The delta column shows only when there was a previous frame.
		var prevVals map[uint64]float64
		if prev != nil {
			prevVals = valuesByKey(prev.reg.TopK[sec.tracker])
		}
		table(out, sec.title, topk[sec.tracker], prevVals, topN, sec.valFmt)
	}
}

// table prints one ranked tracker with a delta column.
func table(out io.Writer, title string, tk obs.TopKSnapshot, prevVals map[uint64]float64, topN int, valFmt string) {
	fmt.Fprintf(out, "%s  (total %.0f)\n", title, tk.Total)
	if len(tk.Entries) == 0 {
		fmt.Fprintln(out, "  (no entries yet)")
		fmt.Fprintln(out)
		return
	}
	fmt.Fprintf(out, "  %-18s %12s %10s\n", "entity", "value", "delta")
	n := min(len(tk.Entries), topN)
	for i := 0; i < n; i++ {
		e := tk.Entries[i]
		label := e.Label
		if label == "" {
			label = fmt.Sprint(e.Key)
		}
		delta := ""
		if prevVals != nil {
			if d := e.Value - prevVals[e.Key]; d > 0 {
				delta = "+" + fmt.Sprintf(valFmt, d)
			} else if d < 0 {
				delta = fmt.Sprintf(valFmt, d)
			}
		}
		fmt.Fprintf(out, "  %-18s %12s %10s\n", label, fmt.Sprintf(valFmt, e.Value), delta)
	}
	fmt.Fprintln(out)
}
