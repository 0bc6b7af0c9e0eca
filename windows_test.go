package spacebooking_test

import (
	"testing"
	"time"

	"spacebooking"
	"spacebooking/internal/core"
	"spacebooking/internal/grid"
	"spacebooking/internal/netstate"
	"spacebooking/internal/orbit"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// contactWindow is a maximal run of consecutive slots, StartSlot to
// EndSlot inclusive, during which an endpoint can reach at least one
// broadband satellite. Earth-observation operators book downlinks against
// these windows (see Example_disasterMonitoring and §II-A of the paper).
type contactWindow struct {
	StartSlot, EndSlot int
	// MaxVisible is the largest number of simultaneously visible
	// satellites during the window.
	MaxVisible int
}

// slots returns the window length in slots.
func (w contactWindow) slots() int { return w.EndSlot - w.StartSlot + 1 }

// contactWindows scans the horizon through VisibleSats and returns the
// endpoint's contact windows in chronological order.
func contactWindows(p *topology.Provider, e topology.Endpoint) ([]contactWindow, error) {
	var windows []contactWindow
	for slot := 0; slot < p.Horizon(); slot++ {
		vis, err := p.VisibleSats(e, slot)
		if err != nil {
			return nil, err
		}
		switch last := len(windows) - 1; {
		case len(vis) == 0:
		case last >= 0 && windows[last].EndSlot == slot-1:
			windows[last].EndSlot = slot
			windows[last].MaxVisible = max(windows[last].MaxVisible, len(vis))
		default:
			windows = append(windows, contactWindow{StartSlot: slot, EndSlot: slot, MaxVisible: len(vis)})
		}
	}
	return windows, nil
}

// coverageFraction returns the fraction of a horizon the windows cover.
func coverageFraction(windows []contactWindow, horizon int) float64 {
	covered := 0
	for _, w := range windows {
		covered += w.slots()
	}
	return float64(covered) / float64(horizon)
}

// newWindowsProvider builds an 8-plane × 12-satellite shell over 30 slots.
func newWindowsProvider(t *testing.T, sites []grid.Site, eo []orbit.Satellite) *topology.Provider {
	t.Helper()
	cfg := topology.DefaultConfig(windowsEpoch)
	cfg.Walker.Planes, cfg.Walker.SatsPerPlane, cfg.Walker.PhasingF = 8, 12, 3
	cfg.Horizon = 30
	p, err := topology.NewProvider(cfg, sites, eo)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var windowsEpoch = time.Date(2026, time.July, 5, 0, 0, 0, 0, time.UTC)

// nyAndPole are a site a 53° shell covers intermittently and one it never
// covers.
var nyAndPole = []grid.Site{
	{ID: 0, LatDeg: 40.7, LonDeg: -74.0},
	{ID: 1, LatDeg: 89.0, LonDeg: 0},
}

func TestContactWindowsStructure(t *testing.T) {
	p := newWindowsProvider(t, nyAndPole, nil)
	ny := topology.Endpoint{Kind: topology.EndpointGround, Index: 0}
	windows, err := contactWindows(p, ny)
	if err != nil {
		t.Fatal(err)
	}
	// Windows must be chronological, non-overlapping, separated by at
	// least one dark slot, and match the raw visibility predicate exactly.
	inWindow := make([]bool, p.Horizon())
	lastEnd := -2
	for _, w := range windows {
		if w.StartSlot <= lastEnd+1 {
			t.Fatalf("window %+v overlaps, touches or is out of order (lastEnd %d)", w, lastEnd)
		}
		if w.EndSlot < w.StartSlot || w.EndSlot >= p.Horizon() {
			t.Fatalf("window %+v out of range", w)
		}
		if w.MaxVisible < 1 {
			t.Fatalf("window %+v has no visible satellites", w)
		}
		for s := w.StartSlot; s <= w.EndSlot; s++ {
			inWindow[s] = true
		}
		lastEnd = w.EndSlot
	}
	for slot := 0; slot < p.Horizon(); slot++ {
		vis, err := p.VisibleSats(ny, slot)
		if err != nil {
			t.Fatal(err)
		}
		if (len(vis) > 0) != inWindow[slot] {
			t.Fatalf("slot %d: visibility %v but window coverage %v", slot, len(vis) > 0, inWindow[slot])
		}
	}

	polar, err := contactWindows(p, topology.Endpoint{Kind: topology.EndpointGround, Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(polar) != 0 {
		t.Errorf("polar site has %d windows, want 0", len(polar))
	}
}

func TestContactWindowsErrors(t *testing.T) {
	p := newWindowsProvider(t, nil, nil)
	if _, err := contactWindows(p, topology.Endpoint{Kind: topology.EndpointGround, Index: 0}); err == nil {
		t.Error("expected error with no registered sites")
	}
}

func TestCoverageFraction(t *testing.T) {
	p := newWindowsProvider(t, nyAndPole, nil)
	for _, tc := range []struct {
		site     int
		min, max float64
	}{{0, 1e-9, 1}, {1, 0, 0}} {
		windows, err := contactWindows(p, topology.Endpoint{Kind: topology.EndpointGround, Index: tc.site})
		if err != nil {
			t.Fatal(err)
		}
		if got := coverageFraction(windows, p.Horizon()); got < tc.min || got > tc.max {
			t.Errorf("site %d coverage = %v, want in [%v, %v]", tc.site, got, tc.min, tc.max)
		}
	}
}

func TestContactWindowsEO(t *testing.T) {
	eo, err := orbit.SyntheticEOFleet(orbit.EOFleetConfig{
		Count: 3, MinAltitudeKm: 475, MaxAltitudeKm: 525, Seed: 2, Epoch: windowsEpoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := newWindowsProvider(t, nil, eo)
	totalWindows := 0
	for i := range eo {
		ws, err := contactWindows(p, topology.Endpoint{Kind: topology.EndpointSpace, Index: i})
		if err != nil {
			t.Fatal(err)
		}
		totalWindows += len(ws)
		if frac := coverageFraction(ws, p.Horizon()); frac < 0 || frac > 1 {
			t.Fatalf("EO %d coverage %v", i, frac)
		}
	}
	if totalWindows == 0 {
		t.Skip("no EO contact in this short horizon")
	}
}

// TestEndpointKindsInterop: space-user requests (EO -> ground) flow
// through the same admission machinery.
func TestEndpointKindsInterop(t *testing.T) {
	env, err := spacebooking.NewEnvironment(spacebooking.EnvConfig{Scale: spacebooking.ScaleSmall, IncludeEOFleet: true})
	if err != nil {
		t.Fatal(err)
	}
	state, err := netstate.New(env.Provider, spacebooking.PaperEnergyConfig())
	if err != nil {
		t.Fatal(err)
	}
	params, err := spacebooking.PaperPricing()
	if err != nil {
		t.Fatal(err)
	}
	cear, err := core.New(state, core.Options{Pricing: params})
	if err != nil {
		t.Fatal(err)
	}
	eo := topology.Endpoint{Kind: topology.EndpointSpace, Index: 3}
	windows, err := contactWindows(env.Provider, eo)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) == 0 {
		t.Skip("EO-3 has no contact in this horizon")
	}
	w := windows[0]
	req := workload.Request{
		ID: 1, Src: eo, Dst: topology.Endpoint{Kind: topology.EndpointGround, Index: 0},
		StartSlot: w.StartSlot, EndSlot: w.StartSlot,
		RateMbps: 500, Valuation: env.DefaultValuation(),
	}
	d, err := cear.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("EO downlink accepted=%v reason=%q price=%.3g", d.Accepted, d.Reason, d.Price)
}
