package spacebooking_test

import (
	"math"
	"testing"

	"spacebooking"
	"spacebooking/internal/graph"
	"spacebooking/internal/netstate"
	"spacebooking/internal/router"
	"spacebooking/internal/sim"
	"spacebooking/internal/workload"
)

// TestAcceptedPlansReplayOntoLedgers is the conservation contract: after
// a CEAR run (sim.Run's loop: generate, then Admit every request) at the
// small and medium scales on seeds 1–3, replaying every accepted plan in
// commit order on a fresh state rebuilds every battery cell and deficit
// bound, and every link cell the plans reserve, bit for bit — the
// rejected requests' reservations and draws were undone exactly.
func TestAcceptedPlansReplayOntoLedgers(t *testing.T) {
	scales := []spacebooking.Scale{spacebooking.ScaleSmall, spacebooking.ScaleMedium}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, scale := range scales {
		env, err := spacebooking.NewEnvironment(spacebooking.EnvConfig{Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			rc, err := sim.DefaultRunConfig(sim.AlgCEAR, env.WorkloadConfig(env.DefaultArrivalRate(), seed))
			if err != nil {
				t.Fatal(err)
			}
			eng, err := sim.NewEngine(env.Provider, rc)
			if err != nil {
				t.Fatal(err)
			}
			reqs, err := workload.Generate(rc.Workload)
			if err != nil {
				t.Fatal(err)
			}
			replay, err := netstate.New(env.Provider, rc.Energy)
			if err != nil {
				t.Fatal(err)
			}
			cells := map[linkCell]bool{}
			accepted := 0
			for _, req := range reqs {
				d, err := eng.Admit(req)
				if err != nil {
					t.Fatal(err)
				}
				if d.Accepted {
					accepted++
					replayPlan(t, replay, req, d.Plan, cells)
				}
			}
			live := eng.State()
			for sat := range env.Provider.NumSats() {
				got, want := live.Battery(sat), replay.Battery(sat)
				gf, gl := got.DeficitSpan()
				wf, wl := want.DeficitSpan()
				if gf != wf || gl != wl {
					t.Fatalf("%v seed %d, satellite %d: live deficit span [%d, %d], replayed [%d, %d]", scale, seed, sat, gf, gl, wf, wl)
				}
				for slot := range got.Horizon() {
					if math.Float64bits(got.DeficitAt(slot)) != math.Float64bits(want.DeficitAt(slot)) ||
						math.Float64bits(got.SolarRemainingAt(slot)) != math.Float64bits(want.SolarRemainingAt(slot)) {
						t.Fatalf("%v seed %d, satellite %d, slot %d: live deficit %v solar %v, replayed %v and %v", scale, seed, sat, slot,
							got.DeficitAt(slot), got.SolarRemainingAt(slot), want.DeficitAt(slot), want.SolarRemainingAt(slot))
					}
				}
			}
			differ := 0
			for c := range cells {
				got, want := live.LinkUsedMbps(c.key, c.slot), replay.LinkUsedMbps(c.key, c.slot)
				if math.Float64bits(got) != math.Float64bits(want) {
					if differ == 0 {
						t.Errorf("%v seed %d: link %d->%d slot %d holds %v Mbps, the replayed sum %v",
							scale, seed, c.key.From(), c.key.To(), c.slot, got, want)
					}
					differ++
				}
			}
			if differ > 0 {
				t.Fatalf("%v seed %d: %d of %d link cells differ from the replayed sum", scale, seed, differ, len(cells))
			}
			t.Logf("%v seed %d: %d of %d requests accepted; %d link cells replayed exactly", scale, seed, accepted, len(reqs), len(cells))
		}
	}
}

type linkCell struct {
	key  netstate.LinkKey
	slot int
}

// replayPlan applies one accepted plan to state slot by slot, as the
// admission committed it: each path's links at the slot's rate, then its
// satellites' draws (Eq. 1) in path order. It records the link cells.
func replayPlan(t *testing.T, state *netstate.State, req workload.Request, plan router.Plan, cells map[linkCell]bool) {
	t.Helper()
	cfg := state.EnergyConfig()
	slotSec := state.Provider().Config().SlotSeconds
	zero := func(netstate.LinkKey, graph.EdgeClass, float64, float64) float64 { return 0 }
	for _, sp := range plan.Paths {
		rate := req.RateAt(sp.Slot)
		view, err := netstate.NewView(state, sp.Slot, req.Src, req.Dst, rate, zero)
		if err != nil {
			t.Fatal(err)
		}
		nodes, edges := sp.Path.Nodes, sp.Path.Edges
		for i := 0; i+1 < len(nodes); i++ {
			key := view.LinkKeyFor(nodes[i], nodes[i+1])
			if _, err := state.ReserveLink(key, sp.Slot, rate); err != nil {
				t.Fatalf("request %d: %v", req.ID, err)
			}
			cells[linkCell{key, sp.Slot}] = true
		}
		for i := 1; i+1 < len(nodes); i++ {
			if j := cfg.TransitEnergyJ(edges[i-1].Class, edges[i].Class, rate, slotSec); j > 0 {
				if err := state.Battery(nodes[i]).Consume(sp.Slot, j); err != nil {
					t.Fatalf("request %d: satellite %d: %v", req.ID, nodes[i], err)
				}
			}
		}
	}
}
