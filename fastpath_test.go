package spacebooking

// Fast-path cross-checks: the flat CSR search path must be a drop-in
// replacement for the generic Adjacency-interface path (selected by
// handing a run's state netstate.NewReferenceScratch()), and budget
// pruning must never change an admission outcome. Both properties are
// asserted at the Decision level (accepted flag, quoted price, full
// plan) rather than on aggregate metrics, so any divergence in
// floating-point evaluation order or tie-breaking shows up immediately.

import (
	"reflect"
	"testing"

	"spacebooking/internal/core"
	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
	"spacebooking/internal/sim"
	"spacebooking/internal/trace"
	"spacebooking/internal/workload"
)

// replayOnBothScratches admits one generated stream on two fresh engines of
// the given kind — one handed the reference scratch, one on the flat fast
// path — and fails unless every decision is byte-identical and both ledgers
// keep their invariants. It returns the two runs' registries.
func replayOnBothScratches(t *testing.T, env *Environment, kind sim.AlgorithmKind, rateMult float64, seed int64) (genericReg, flatReg *obs.Registry) {
	t.Helper()
	wl := env.WorkloadConfig(rateMult*env.DefaultArrivalRate(), seed)
	rc, err := sim.DefaultRunConfig(kind, wl)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) < 200 {
		t.Fatalf("%v seed %d: only %d requests; the ledger never loads up", kind, seed, len(reqs))
	}
	genericReg, flatReg = obs.New(), obs.New()
	rc.Obs = genericReg
	generic, err := sim.NewEngine(env.Provider, rc)
	if err != nil {
		t.Fatal(err)
	}
	generic.State().SetScratch(netstate.NewReferenceScratch())
	rc.Obs = flatReg
	flat, err := sim.NewEngine(env.Provider, rc)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		dg, err := generic.Admit(req)
		if err != nil {
			t.Fatalf("%v seed %d: generic Admit(%d): %v", kind, seed, i, err)
		}
		df, err := flat.Admit(req)
		if err != nil {
			t.Fatalf("%v seed %d: flat Admit(%d): %v", kind, seed, i, err)
		}
		if !reflect.DeepEqual(dg, df) {
			t.Fatalf("%v seed %d request %d: decisions diverge\ngeneric: %+v\nflat:    %+v",
				kind, seed, i, dg, df)
		}
	}
	checkInvariants(t, generic.State(), flat.State())
	return genericReg, flatReg
}

// TestFlatSearchMatchesGenericSearch replays identical workloads through
// the generic reference path and the flat CSR fast path and requires
// byte-identical decisions for CEAR and every baseline. Load is set above
// the default rate so congested (+Inf) edges, energy-infeasible trials and
// rejections are all exercised, and every stream is long enough (200
// requests and more) that most batteries carry a deficit span for most of
// it. Both paths price a transit when a search first asks for it, one
// state at a time, so they must also count exactly the same deficit walks.
func TestFlatSearchMatchesGenericSearch(t *testing.T) {
	env := smallEnv(t)
	for _, kind := range []sim.AlgorithmKind{sim.AlgCEAR, sim.AlgSSP, sim.AlgECARS, sim.AlgERU, sim.AlgERA} {
		for _, seed := range []int64{1, 7, 23} {
			genericReg, flatReg := replayOnBothScratches(t, env, kind, 2, seed)
			if n := genericReg.Counter("graph.fastpath.searches").Value(); n != 0 {
				t.Fatalf("%v seed %d: the reference scratch ran %d flat searches", kind, seed, n)
			}
			searches := flatReg.Counter("graph.fastpath.searches").Value()
			flatWalks := flatReg.Counter("energy.deficit_walks").Value()
			genericWalks := genericReg.Counter("energy.deficit_walks").Value()
			if searches == 0 || flatWalks != genericWalks {
				t.Fatalf("%v seed %d: the flat path counted %d deficit walks over %d searches, the generic path %d",
					kind, seed, flatWalks, searches, genericWalks)
			}
		}
	}
}

// checkInvariants fails the test if any state's ledgers broke a
// structural invariant during the run.
func checkInvariants(t *testing.T, states ...*netstate.State) {
	t.Helper()
	for _, s := range states {
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBudgetPruningPreservesOutcomes runs CEAR with and without budget
// pruning over identical workloads, at the default valuation (where
// no-path and energy-infeasible rejections are common, so pruning has
// classes to move) and with the valuation squeezed low enough that
// nearly every rejection is priced out. Pruning may
// abandon a search early, so rejection reason *classes* can differ (an
// early-pruned plan reads "exceeds valuation" where the exhaustive
// search might discover "no feasible path" at a later slot) — but only
// ever toward priced-out, and the accepted set, the quoted prices of
// accepted plans, the plans themselves, and the committed network state
// must match exactly.
func TestBudgetPruningPreservesOutcomes(t *testing.T) {
	env := smallEnv(t)
	horizon := env.Provider.Horizon()
	totalReclassified := 0
	for _, tc := range []struct {
		seed      int64
		squeezeBy float64
	}{{3, 1e4}, {11, 1e4}, {3, 1}, {11, 1}} {
		seed := tc.seed
		wl := env.WorkloadConfig(2*env.DefaultArrivalRate(), seed)
		wl.Valuation = env.DefaultValuation() / tc.squeezeBy
		rc, err := sim.DefaultRunConfig(sim.AlgCEAR, wl)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.Generate(wl)
		if err != nil {
			t.Fatal(err)
		}

		reg := obs.New()
		statePlain, err := netstate.New(env.Provider, rc.Energy)
		if err != nil {
			t.Fatal(err)
		}
		statePruned, err := netstate.New(env.Provider, rc.Energy)
		if err != nil {
			t.Fatal(err)
		}
		statePruned.SetObs(reg)
		plain, err := core.New(statePlain, core.Options{Pricing: rc.Pricing})
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := core.New(statePruned, core.Options{Pricing: rc.Pricing, PruneBudget: true})
		if err != nil {
			t.Fatal(err)
		}

		accepted, rejected, reclassified := 0, 0, 0
		for i, req := range reqs {
			dp, err := plain.Handle(req)
			if err != nil {
				t.Fatalf("seed %d: plain Handle(%d): %v", seed, i, err)
			}
			dq, err := pruned.Handle(req)
			if err != nil {
				t.Fatalf("seed %d: pruned Handle(%d): %v", seed, i, err)
			}
			if dp.Accepted != dq.Accepted {
				t.Fatalf("seed %d request %d: accepted %v (plain) vs %v (pruned); reasons %q vs %q",
					seed, i, dp.Accepted, dq.Accepted, dp.Reason, dq.Reason)
			}
			if dp.Accepted {
				accepted++
				// Accepted decisions must be fully identical, reason
				// included (it is empty on accept): the plain run rolls
				// back slots the pruned run never reaches, and a rollback
				// restores every cell it touched bit for bit.
				if !reflect.DeepEqual(dp, dq) {
					t.Fatalf("seed %d request %d: accepted decisions diverge\nplain:  %+v\npruned: %+v",
						seed, i, dp, dq)
				}
			} else {
				rejected++
				// The reason class is the one thing pruning may change,
				// and only in one direction.
				if cp, cq := trace.ClassifyReason(dp.Reason), trace.ClassifyReason(dq.Reason); cp != cq {
					if cq != "priced-out" {
						t.Fatalf("seed %d request %d: reason class moved %s -> %s; pruning may only reclassify to priced-out",
							seed, i, cp, cq)
					}
					reclassified++
				}
			}
		}
		totalReclassified += reclassified
		if accepted == 0 || rejected == 0 {
			t.Fatalf("seed %d: degenerate workload (accepted=%d rejected=%d); pruning not exercised both ways",
				seed, accepted, rejected)
		}
		if n := reg.Counter("graph.fastpath.pruned_labels").Value(); n == 0 {
			t.Fatalf("seed %d: budget pruning never fired; cross-check is vacuous", seed)
		}

		// Committed state must be indistinguishable: same congestion and
		// depletion profile, same residual energy deficit, slot by slot.
		checkInvariants(t, statePlain, statePruned)
		for slot := 0; slot < horizon; slot++ {
			if a, b := statePlain.CongestedLinkCount(slot, 0.1), statePruned.CongestedLinkCount(slot, 0.1); a != b {
				t.Fatalf("seed %d slot %d: congested links %d vs %d", seed, slot, a, b)
			}
			if a, b := statePlain.DepletedSatCount(slot, 0.2), statePruned.DepletedSatCount(slot, 0.2); a != b {
				t.Fatalf("seed %d slot %d: depleted sats %d vs %d", seed, slot, a, b)
			}
			if a, b := statePlain.EnergyDeficitJ(slot), statePruned.EnergyDeficitJ(slot); a != b {
				t.Fatalf("seed %d slot %d: energy deficit %v vs %v", seed, slot, a, b)
			}
		}
	}
	if totalReclassified == 0 {
		t.Fatal("pruning never changed a reason class; the direction check is vacuous")
	}
}

// TestScratchReuseAcrossRequests checks the scratch story end to end: the
// one SearchScratch a run's state searches on is reused (not rebuilt)
// across slots and requests, and handing that warm scratch to a second
// run's state still produces results identical to the first run's.
func TestScratchReuseAcrossRequests(t *testing.T) {
	env := smallEnv(t)
	wl := env.WorkloadConfig(env.DefaultArrivalRate(), 5)
	rc, err := sim.DefaultRunConfig(sim.AlgCEAR, wl)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	sc := netstate.NewSearchScratch()
	run := func() *sim.Result {
		rc.Obs = obs.New()
		eng, err := sim.NewEngine(env.Provider, rc)
		if err != nil {
			t.Fatal(err)
		}
		eng.State().SetScratch(sc)
		for _, req := range reqs {
			if _, err := eng.Admit(req); err != nil {
				t.Fatal(err)
			}
		}
		res, err := eng.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res1 := run()
	if n := rc.Obs.Counter("netstate.scratch.reuses").Value(); n == 0 {
		t.Fatal("scratch was never reused across view builds")
	}
	if n := rc.Obs.Counter("graph.fastpath.searches").Value(); n == 0 {
		t.Fatal("fast-path search counter never incremented")
	}

	// The same (now warm) scratch must not leak state between runs.
	if res2 := run(); !reflect.DeepEqual(res1, res2) {
		t.Fatalf("warm-scratch rerun diverged:\nfirst:  %+v\nsecond: %+v", res1, res2)
	}
}

// TestAdmitAllocsNoWorseThanPerLinkLedgers guards the allocation cost of
// admission: on a fresh engine over a warm scratch (steady state for
// everything but the ledger itself, whose rows appear as slots are first
// reserved), a whole stream must average no more heap allocations per
// Admit than the dense ledger measures on these streams, 13 and 11 (the
// per-link map of horizon-long slices it replaced measured 17 and 13).
// The ceilings are the measured figures, not the old ledger's: one more
// allocation per Admit — netstate.State.Begin no longer inlining, say, so
// that every Txn escapes — has to fail here, not only in the benchmark's
// sim.allocs_per_req.
func TestAdmitAllocsNoWorseThanPerLinkLedgers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes what inlines and what escapes; the ceilings pin the plain build")
	}
	env := smallEnv(t)
	for _, tc := range []struct {
		rateMult float64
		ceiling  float64
	}{{1, 13}, {2, 11}} {
		wl := env.WorkloadConfig(tc.rateMult*env.DefaultArrivalRate(), 5)
		rc, err := sim.DefaultRunConfig(sim.AlgCEAR, wl)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		sc := netstate.NewSearchScratch()
		lap := func() float64 {
			eng, err := sim.NewEngine(env.Provider, rc)
			if err != nil {
				t.Fatal(err)
			}
			eng.State().SetScratch(sc)
			next := 0
			return testing.AllocsPerRun(len(reqs)-1, func() {
				if _, err := eng.Admit(reqs[next]); err != nil {
					t.Fatal(err)
				}
				next++
			})
		}
		lap() // warms the scratch
		if got := lap(); got > tc.ceiling {
			t.Errorf("rate x%g: %.0f allocs per Admit, ceiling %.0f", tc.rateMult, got, tc.ceiling)
		}
	}
}
