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

	"spacebooking/internal/obs"
	"spacebooking/internal/server"
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
	url := strings.TrimRight(*addr, "/") + "/v1/hotspots"

	cur, err := fetch(client, url)
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
			next, err := fetch(client, url)
			if err != nil {
				// A draining/restarting daemon is normal; keep the last
				// frame and note the error below it.
				fmt.Fprintf(c.stdout, "\n%s: %v (retrying)\n", c.fs.Name(), err)
				continue
			}
			render(c.stdout, next, prev, *topN, true)
			prev = next
		}
	}
}

// fetch pulls and decodes one hot-spot snapshot.
func fetch(client *http.Client, url string) (*server.HotspotsResponse, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var h server.HotspotsResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("GET %s: decode: %w", url, err)
	}
	return &h, nil
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
func render(out io.Writer, h, prev *server.HotspotsResponse, topN int, clear bool) {
	if clear {
		// ANSI: home cursor + clear screen, so unchanged rows repaint in
		// place instead of scrolling.
		fmt.Fprint(out, "\x1b[H\x1b[2J")
	}
	fmt.Fprintf(out, "spacetop — slot %d, uptime %.0fs", h.Slot, h.UptimeSeconds)
	if !h.Enabled {
		fmt.Fprint(out, "  [hot-spot tracking DISABLED on the daemon]")
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "rejections: congested %d (per-link total %.0f), depleted %d (per-battery total %.0f)\n\n",
		h.RejectedCongested, h.Links.Total, h.RejectedDepleted, h.Batteries.Total)

	// A zero previous frame keeps the section wiring declarative; the
	// delta column still shows only when there was a previous frame.
	hasPrev := prev != nil
	if !hasPrev {
		prev = &server.HotspotsResponse{}
	}
	sections := []struct {
		title  string
		cur    obs.TopKSnapshot
		prev   obs.TopKSnapshot
		valFmt string
	}{
		{"HOT LINKS (congestion rejections)", h.Links, prev.Links, "%.0f"},
		{"LINK UTILIZATION (max committed)", h.LinkUtilization, prev.LinkUtilization, "%.3f"},
		{"HOT BATTERIES (depletion rejections)", h.Batteries, prev.Batteries, "%.0f"},
		{"BATTERY DEPTH-OF-DISCHARGE (max committed)", h.BatteryDoD, prev.BatteryDoD, "%.3f"},
		{"SOURCE CELLS (rejected)", h.SrcRejected, prev.SrcRejected, "%.0f"},
		{"SOURCE CELLS (accepted)", h.SrcAccepted, prev.SrcAccepted, "%.0f"},
	}
	for _, sec := range sections {
		var prevVals map[uint64]float64
		if hasPrev {
			prevVals = valuesByKey(sec.prev)
		}
		table(out, sec.title, sec.cur, prevVals, topN, sec.valFmt)
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
