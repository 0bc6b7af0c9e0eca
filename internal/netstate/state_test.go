package netstate

import (
	"math"
	"testing"
	"time"

	"spacebooking/internal/graph"
	"spacebooking/internal/grid"
	"spacebooking/internal/topology"
)

var testEpoch = time.Date(2026, time.July, 5, 0, 0, 0, 0, time.UTC)

func smallProvider(t *testing.T, sites []grid.Site) *topology.Provider {
	t.Helper()
	cfg := topology.DefaultConfig(testEpoch)
	cfg.Walker.Planes = 8
	cfg.Walker.SatsPerPlane = 12
	cfg.Walker.PhasingF = 3
	cfg.Horizon = 20
	p, err := topology.NewProvider(cfg, sites, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newTestState(t *testing.T, sites []grid.Site, clamp bool) *State {
	t.Helper()
	s, err := New(smallProvider(t, sites), DefaultEnergyConfig(), clamp)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLinkKeyRoundTrip(t *testing.T) {
	tests := []struct{ from, to int }{
		{0, 0}, {1, 2}, {1583, 1584}, {3344, 12}, {1 << 20, 1<<20 + 7},
	}
	for _, tt := range tests {
		k := MakeLinkKey(tt.from, tt.to)
		if k.From() != tt.from || k.To() != tt.to {
			t.Errorf("key(%d,%d) round-trips to (%d,%d)", tt.from, tt.to, k.From(), k.To())
		}
	}
	if MakeLinkKey(1, 2) == MakeLinkKey(2, 1) {
		t.Error("directed keys must differ")
	}
}

func TestEnergyConfigValidate(t *testing.T) {
	good := DefaultEnergyConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*EnergyConfig)
	}{
		{"negative panel", func(c *EnergyConfig) { c.PanelWatts = -1 }},
		{"zero battery", func(c *EnergyConfig) { c.BatteryCapacityJ = 0 }},
		{"negative unit", func(c *EnergyConfig) { c.USLRxJPerMB = -0.1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultEnergyConfig()
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestTransitEnergyRoles(t *testing.T) {
	c := DefaultEnergyConfig()
	const rate, slotSec = 1000.0, 60.0 // 1000 Mbps for 60 s = 7500 MB
	mb := rate * slotSec / 8
	tests := []struct {
		name    string
		in, out graph.EdgeClass
		want    float64
	}{
		{"relay (ISL/ISL)", graph.ClassISL, graph.ClassISL, mb * (0.2 + 0.25)},
		{"ingress gateway (USL/ISL)", graph.ClassUSL, graph.ClassISL, mb * (0.8 + 0.25)},
		{"egress gateway (ISL/USL)", graph.ClassISL, graph.ClassUSL, mb * (0.2 + 1.0)},
		{"single-hop sat (USL/USL)", graph.ClassUSL, graph.ClassUSL, mb * (0.8 + 1.0)},
		{"no incoming", graph.ClassNone, graph.ClassISL, mb * 0.25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := c.TransitEnergyJ(tt.in, tt.out, rate, slotSec)
			if math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("energy = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestStateConstruction(t *testing.T) {
	s := newTestState(t, nil, false)
	if s.Provider().NumSats() != 96 {
		t.Fatalf("NumSats = %d", s.Provider().NumSats())
	}
	// Every satellite has a full battery of the configured capacity.
	for sat := 0; sat < 96; sat++ {
		b := s.Battery(sat)
		if b.CapacityJ() != 117000 {
			t.Fatalf("satellite %d capacity %v", sat, b.CapacityJ())
		}
		if b.LevelAt(0) != 117000 {
			t.Fatalf("satellite %d not full at start", sat)
		}
	}
	// Batteries of sunlit satellites have solar input.
	found := false
	for sat := 0; sat < 96 && !found; sat++ {
		if s.Provider().Sunlit(0, sat) && s.Battery(sat).SolarRemainingAt(0) == 20*60 {
			found = true
		}
	}
	if !found {
		t.Error("no sunlit satellite has the expected 1200 J solar input")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, DefaultEnergyConfig(), false); err == nil {
		t.Error("nil provider should error")
	}
	bad := DefaultEnergyConfig()
	bad.BatteryCapacityJ = -1
	if _, err := New(smallProvider(t, nil), bad, false); err == nil {
		t.Error("bad energy config should error")
	}
}

func TestLinkCapacityByKind(t *testing.T) {
	s := newTestState(t, []grid.Site{{ID: 0}}, false)
	numSats := s.Provider().NumSats()
	isl := MakeLinkKey(0, 1)
	usl := MakeLinkKey(numSats, 3) // ground site -> satellite
	if got := s.linkCapacity(isl); got != 20000 {
		t.Errorf("ISL capacity = %v", got)
	}
	if got := s.linkCapacity(usl); got != 4000 {
		t.Errorf("USL capacity = %v", got)
	}
}

func TestReserveAndQueryLink(t *testing.T) {
	s := newTestState(t, nil, false)
	key := MakeLinkKey(0, 1)
	if got := s.LinkUtilization(key, 3); got != 0 {
		t.Errorf("fresh utilization = %v", got)
	}
	if err := s.ReserveLink(key, 3, 5000); err != nil {
		t.Fatal(err)
	}
	if got := s.LinkUsedMbps(key, 3); got != 5000 {
		t.Errorf("used = %v", got)
	}
	if got := s.LinkUtilization(key, 3); got != 0.25 {
		t.Errorf("utilization = %v, want 0.25", got)
	}
	// Other slots unaffected.
	if got := s.LinkUsedMbps(key, 4); got != 0 {
		t.Errorf("slot 4 used = %v", got)
	}
}

func TestReserveLinkOverSubscription(t *testing.T) {
	s := newTestState(t, nil, false)
	key := MakeLinkKey(0, 1)
	if err := s.ReserveLink(key, 0, 19000); err != nil {
		t.Fatal(err)
	}
	if err := s.ReserveLink(key, 0, 1500); err == nil {
		t.Fatal("over-subscription accepted")
	}
	// Failed reservation must not change the ledger.
	if got := s.LinkUsedMbps(key, 0); got != 19000 {
		t.Errorf("used = %v after failed reservation", got)
	}
	// Exactly filling is allowed.
	if err := s.ReserveLink(key, 0, 1000); err != nil {
		t.Errorf("exact fill rejected: %v", err)
	}
}

func TestReserveLinkArgErrors(t *testing.T) {
	s := newTestState(t, nil, false)
	key := MakeLinkKey(0, 1)
	if err := s.ReserveLink(key, 0, 0); err == nil {
		t.Error("zero rate should error")
	}
	if err := s.ReserveLink(key, 0, -5); err == nil {
		t.Error("negative rate should error")
	}
	if err := s.ReserveLink(key, -1, 5); err == nil {
		t.Error("negative slot should error")
	}
	if err := s.ReserveLink(key, 999, 5); err == nil {
		t.Error("beyond-horizon slot should error")
	}
}

func TestCongestedLinkCount(t *testing.T) {
	s := newTestState(t, nil, false)
	a, b := MakeLinkKey(0, 1), MakeLinkKey(1, 2)
	if err := s.ReserveLink(a, 2, 19000); err != nil { // residual 1000 < 10% of 20000
		t.Fatal(err)
	}
	if err := s.ReserveLink(b, 2, 10000); err != nil { // residual 10000, not congested
		t.Fatal(err)
	}
	if got := s.CongestedLinkCount(2, 0.1); got != 1 {
		t.Errorf("congested count = %d, want 1", got)
	}
	if got := s.CongestedLinkCount(3, 0.1); got != 0 {
		t.Errorf("slot 3 congested count = %d, want 0", got)
	}
}

func TestDepletedSatCount(t *testing.T) {
	s := newTestState(t, nil, false)
	if got := s.DepletedSatCount(0, 0.2); got != 0 {
		t.Fatalf("fresh state depleted = %d", got)
	}
	// Drain satellite 0 to 10% of capacity at slot 5.
	b := s.Battery(0)
	drain := b.CapacityJ()*0.9 + b.SolarRemainingAt(5)
	if err := b.Consume(5, drain); err != nil {
		t.Fatal(err)
	}
	if got := s.DepletedSatCount(5, 0.2); got != 1 {
		t.Errorf("depleted = %d, want 1", got)
	}
	if got := s.DepletedSatCount(0, 0.2); got != 0 {
		t.Errorf("slot 0 depleted = %d, want 0", got)
	}
}

func TestTrialAndCommitConsume(t *testing.T) {
	s := newTestState(t, nil, false)
	capJ := s.Battery(0).CapacityJ()
	// Find a slot where satellite 0 is in umbra so solar cannot absorb.
	dark := -1
	for slot := 0; slot < s.Provider().Horizon(); slot++ {
		if !s.Provider().Sunlit(slot, 0) {
			dark = slot
			break
		}
	}
	if dark < 0 {
		t.Skip("satellite 0 never in umbra within horizon")
	}
	good := []Consumption{{Sat: 0, Slot: dark, Joules: capJ * 0.4}, {Sat: 0, Slot: dark, Joules: capJ * 0.4}}
	if err := s.TrialConsume(good); err != nil {
		t.Fatalf("feasible trial rejected: %v", err)
	}
	// Trial must not mutate.
	if s.Battery(0).DeficitAt(dark) != 0 {
		t.Fatal("TrialConsume mutated the battery")
	}
	bad := []Consumption{{Sat: 0, Slot: dark, Joules: capJ * 0.7}, {Sat: 0, Slot: dark, Joules: capJ * 0.7}}
	if err := s.TrialConsume(bad); err == nil {
		t.Fatal("infeasible trial accepted")
	}
	txn := s.Begin()
	if err := txn.Consume(good); err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	if got := s.Battery(0).DeficitAt(dark); math.Abs(got-capJ*0.8) > 1e-6 {
		t.Errorf("deficit = %v, want %v", got, capJ*0.8)
	}
}
