package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
	"spacebooking/internal/server"
)

// TestTopOnce renders one frame from a stub daemon's /v1/stats and
// /metrics.json.
func TestTopOnce(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body any
		switch r.URL.Path {
		case "/v1/stats":
			body = server.Stats{Slot: 7, UptimeSeconds: 12.4}
		case "/metrics.json":
			body = obs.RegistrySnapshot{
				TopK: map[string]obs.TopKSnapshot{
					netstate.TrackerLinkRejections: {Total: 9, Entries: []obs.TopKEntry{
						{Key: 1, Label: "12->13", Value: 6}, {Key: 2, Value: 3},
					}},
					netstate.TrackerBatteryDoD: {Entries: []obs.TopKEntry{{Key: 5, Label: "sat 5", Value: 0.25}}},
				},
			}
		default:
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(body)
	}))
	defer srv.Close()

	code, out, errOut := runStat(t, []string{"top", "-once", "-n", "1", "-addr", srv.URL + "/"}, "")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{
		"spacetop — slot 7, uptime 12s\n",
		"rejections: congested 9 (per link), depleted 0 (per battery)\n\n",
		"HOT LINKS (congestion rejections)  (total 9)\n  entity                    value      delta\n  12->13                        6           \n\n",
		"BATTERY DEPTH-OF-DISCHARGE (max committed)  (total 0)\n  entity                    value      delta\n  sat 5                     0.250           \n",
		"SOURCE CELLS (accepted)  (total 0)\n  (no entries yet)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[") {
		t.Error("-once frame clears the screen")
	}

	if code, _, errOut := runStat(t, []string{"top", "-once", "-addr", srv.URL + "/nowhere"}, ""); code != 1 || !strings.Contains(errOut, "404") {
		t.Errorf("404 daemon: exit %d, stderr %q", code, errOut)
	}
	if code, _, _ := runStat(t, []string{"top", "-n", "0"}, ""); code != 1 {
		t.Errorf("-n 0: exit %d, want 1", code)
	}
}
