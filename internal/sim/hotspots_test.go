package sim

import (
	"reflect"
	"testing"

	"spacebooking/internal/obs"
)

// runHotspots runs one instrumented simulation with per-entity
// attribution enabled and returns the registry snapshot.
func runHotspots(t *testing.T, rate float64, seed int64, k int) obs.RegistrySnapshot {
	t.Helper()
	prov := testProvider(t)
	rc, err := DefaultRunConfig(AlgCEAR, testWorkload(rate, seed))
	if err != nil {
		t.Fatal(err)
	}
	rc.Obs = obs.New()
	rc.HotspotK = k
	if _, err := Run(prov, rc); err != nil {
		t.Fatal(err)
	}
	return rc.Obs.Snapshot()
}

// TestHotspotAttributionSumsExactly is the acceptance test for the
// attribution layer: swept across seeds and loads, every sum-mode
// tracker's entries add up to its total EXACTLY (the space-saving
// sketch never loses or duplicates mass under eviction), the source-cell
// trackers count every decision once, and the link and battery trackers
// together blame no more rejections than there were.
func TestHotspotAttributionSumsExactly(t *testing.T) {
	cases := []struct {
		rate float64
		seed int64
		k    int
	}{
		{2, 42, 32},
		{8, 3, 32},
		{8, 7, 4}, // tiny K forces evictions; totals must still reconcile
		{10, 11, 8},
		{10, 101, 2},
	}
	sawRejections := false
	sawCongested := false
	for _, tc := range cases {
		snap := runHotspots(t, tc.rate, tc.seed, tc.k)
		ctr := snap.Counters

		linkRej, ok := snap.TopK["netstate.hotspots.link_rejections"]
		if !ok {
			t.Fatalf("rate %g seed %d: link_rejections tracker missing (topk = %v)", tc.rate, tc.seed, snap.TopK)
		}
		batRej := snap.TopK["energy.hotspots.battery_rejections"]

		// Entry sums equal the totals even after evictions (sum mode).
		for _, name := range []string{
			"netstate.hotspots.link_rejections",
			"energy.hotspots.battery_rejections",
			"sim.hotspots.src_accepted",
			"sim.hotspots.src_rejected",
		} {
			tk := snap.TopK[name]
			var sum float64
			for _, e := range tk.Entries {
				sum += e.Value
			}
			if sum != tk.Total {
				t.Errorf("rate %g seed %d k %d: %s entries sum %v != total %v",
					tc.rate, tc.seed, tc.k, name, sum, tk.Total)
			}
			if len(tk.Entries) > tc.k {
				t.Errorf("%s holds %d entries, cap is %d", name, len(tk.Entries), tc.k)
			}
		}

		// Source-cell trackers count every decision exactly once.
		accepted := float64(ctr["sim.requests.accepted"])
		rejected := float64(ctr["sim.requests.total"]) - accepted
		if got := snap.TopK["sim.hotspots.src_accepted"].Total; got != accepted {
			t.Errorf("rate %g seed %d: src_accepted total %v != accepted %v", tc.rate, tc.seed, got, accepted)
		}
		if got := snap.TopK["sim.hotspots.src_rejected"].Total; got != rejected {
			t.Errorf("rate %g seed %d: src_rejected total %v != rejected %v", tc.rate, tc.seed, got, rejected)
		}
		// Attribution classifies a subset of rejections: never more than
		// the rejections themselves.
		if linkRej.Total+batRej.Total > rejected {
			t.Errorf("rate %g seed %d: attributed %v+%v rejections out of %v total",
				tc.rate, tc.seed, linkRej.Total, batRej.Total, rejected)
		}
		if rejected > 0 {
			sawRejections = true
		}
		if linkRej.Total > 0 {
			sawCongested = true
		}
	}
	if !sawRejections {
		t.Fatal("sweep produced no rejections at all; the exactness claim was never exercised")
	}
	if !sawCongested {
		t.Error("sweep never attributed a congestion rejection; raise the load so the gate is live")
	}
}

// TestHotspotAttributionDeterministic pins that two runs with the same
// seed produce byte-identical hot-spot rankings.
func TestHotspotAttributionDeterministic(t *testing.T) {
	a := runHotspots(t, 8, 3, 16)
	b := runHotspots(t, 8, 3, 16)
	if !reflect.DeepEqual(a.TopK, b.TopK) {
		t.Fatalf("same seed produced different hotspot snapshots:\n%v\nvs\n%v", a.TopK, b.TopK)
	}
}

// TestHotspotsDisabledByDefault pins the opt-in contract: HotspotK
// zero must create no trackers.
func TestHotspotsDisabledByDefault(t *testing.T) {
	snap := runHotspots(t, 2, 42, 0)
	if snap.TopK != nil {
		t.Fatalf("HotspotK=0 created trackers: %v", snap.TopK)
	}
}

// TestHotspotLevelsWithinBounds checks the max-mode level trackers:
// link utilization and battery depth-of-discharge are fractions.
func TestHotspotLevelsWithinBounds(t *testing.T) {
	snap := runHotspots(t, 8, 3, 16)
	for _, name := range []string{"netstate.hotspots.link_util", "energy.hotspots.battery_dod"} {
		tk, ok := snap.TopK[name]
		if !ok {
			t.Fatalf("tracker %s missing", name)
		}
		if tk.Mode != "max" {
			t.Errorf("%s mode = %q, want max", name, tk.Mode)
		}
		for _, e := range tk.Entries {
			if e.Value < 0 || e.Value > 1 {
				t.Errorf("%s entry %s = %v outside [0,1]", name, e.Label, e.Value)
			}
		}
	}
	// Committed traffic must have been observed on at least one link.
	if len(snap.TopK["netstate.hotspots.link_util"].Entries) == 0 {
		t.Error("no link utilization observed despite accepted bookings")
	}
}
