package spacebooking_test

import (
	"fmt"

	"spacebooking"
	"spacebooking/internal/baselines"
	"spacebooking/internal/core"
	"spacebooking/internal/netstate"
	"spacebooking/internal/router"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// Build a small environment, create CEAR over a fresh resource state,
// and submit one reserved-bandwidth request — the library's core loop.
func Example() {
	env, err := spacebooking.NewEnvironment(spacebooking.EnvConfig{Scale: spacebooking.ScaleSmall})
	if err != nil {
		panic(err)
	}
	cear, _ := newCEAR(env)

	decision, err := cear.Handle(workload.Request{
		ID:  1,
		Src: env.Pairs[0].Src, Dst: env.Pairs[0].Dst,
		StartSlot: 10, EndSlot: 14,
		RateMbps:  1250,
		Valuation: env.DefaultValuation(),
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("satellites: %d, horizon: %d min\n", env.Provider.NumSats(), env.Provider.Horizon())
	fmt.Printf("accepted: %v, slot paths: %d\n", decision.Accepted, len(decision.Plan.Paths))
	// Output:
	// satellites: 96, horizon: 96 min
	// accepted: true, slot paths: 5
}

// newCEAR returns CEAR with the paper's pricing parameters (μ1 = μ2 =
// 402) over a fresh resource state: link ledgers plus per-satellite
// battery ledgers with solar input from the eclipse model.
func newCEAR(env *spacebooking.Environment) (*core.CEAR, *netstate.State) {
	state, err := netstate.New(env.Provider, spacebooking.PaperEnergyConfig())
	if err != nil {
		panic(err)
	}
	params, err := spacebooking.PaperPricing()
	if err != nil {
		panic(err)
	}
	cear, err := core.New(state, core.Options{Pricing: params})
	if err != nil {
		panic(err)
	}
	return cear, state
}

// The quickstart: submit a handful of reserved-bandwidth requests
// between one source-destination pair and watch CEAR's pricing respond
// to load until it rejects.
func Example_quickstart() {
	// A small Walker shell (96 satellites), GDP-filtered ground sites,
	// and the per-slot dynamic topology.
	env, err := spacebooking.NewEnvironment(spacebooking.EnvConfig{Scale: spacebooking.ScaleSmall})
	if err != nil {
		panic(err)
	}
	fmt.Printf("constellation: %d satellites, horizon %d minutes, %d candidate sites\n",
		env.Provider.NumSats(), env.Provider.Horizon(), len(env.Sites))
	cear, state := newCEAR(env)
	params, err := spacebooking.PaperPricing()
	if err != nil {
		panic(err)
	}
	fmt.Printf("CEAR ready: competitive ratio bound %.1f\n\n", params.CompetitiveRatio())

	pair := env.Pairs[0]
	src := env.Sites[pair.Src.Index]
	dst := env.Sites[pair.Dst.Index]
	fmt.Printf("requesting reserved 1.25 Gbps sessions from (%.1f, %.1f) to (%.1f, %.1f):\n\n",
		src.LatDeg, src.LonDeg, dst.LatDeg, dst.LonDeg)
	for i := 0; i < 8; i++ {
		decision, err := cear.Handle(workload.Request{
			ID:  i,
			Src: pair.Src, Dst: pair.Dst,
			StartSlot: 10, EndSlot: 14, // five reserved minutes
			RateMbps:  1250,
			Valuation: 2.3e9,
		})
		if err != nil {
			panic(err)
		}
		if decision.Accepted {
			fmt.Printf("request %d: ACCEPTED  price %12.4g  (%d slot-paths, %d total hops)\n",
				i, decision.Price, len(decision.Plan.Paths), decision.Plan.TotalHops())
		} else {
			fmt.Printf("request %d: REJECTED  %s\n", i, decision.Reason)
		}
	}

	// What the reservations did to the network.
	fmt.Printf("\nnetwork state after admission:\n")
	fmt.Printf("  congested links @12: %d (residual < 10%% of capacity)\n", state.CongestedLinkCount(12, 0.1))
	fmt.Printf("  depleted sats  @12:  %d (battery < 20%%)\n", state.DepletedSatCount(12, 0.2))
	// Output:
	// constellation: 96 satellites, horizon 96 minutes, 60 candidate sites
	// CEAR ready: competitive ratio bound 35.6
	//
	// requesting reserved 1.25 Gbps sessions from (39.8, -72.2) to (33.2, 122.4):
	//
	// request 0: ACCEPTED  price    8.891e+05  (5 slot-paths, 31 total hops)
	// request 1: ACCEPTED  price     6.69e+06  (5 slot-paths, 37 total hops)
	// request 2: ACCEPTED  price    2.737e+07  (5 slot-paths, 49 total hops)
	// request 3: REJECTED  no feasible path at slot 10
	// request 4: REJECTED  no feasible path at slot 10
	// request 5: REJECTED  no feasible path at slot 10
	// request 6: REJECTED  no feasible path at slot 10
	// request 7: REJECTED  no feasible path at slot 10
	//
	// network state after admission:
	//   congested links @12: 1 (residual < 10% of capacity)
	//   depleted sats  @12:  0 (battery < 20%)
}

// Reserved ground-to-ground sessions with predictable quality — the
// paper's remote-collaboration scenario. Two offices hold a recurring
// 30-minute video conference needing a guaranteed 50 Mbps, beside heavy
// background transfers on the other pairs. CEAR keeps placing meetings
// on uncongested, energy-healthy routes, while best-effort SSP burns out
// the shortest path.
func Example_teleconference() {
	env, err := spacebooking.NewEnvironment(spacebooking.EnvConfig{Scale: spacebooking.ScaleSmall})
	if err != nil {
		panic(err)
	}
	offices := env.Pairs[0]

	// A meeting every 40 minutes, plus 1-10 minute background transfers,
	// interleaved by arrival slot.
	var reqs []workload.Request
	for start := 5; start+29 < env.Provider.Horizon(); start += 40 {
		reqs = append(reqs, workload.Request{
			ID: len(reqs), Src: offices.Src, Dst: offices.Dst,
			ArrivalSlot: start, StartSlot: start, EndSlot: start + 29,
			RateMbps: 50, Valuation: 2.3e9,
		})
	}
	bg, err := workload.Generate(workload.Config{
		ArrivalRatePerSlot: 2,
		MinDurationSlots:   1, MaxDurationSlots: 10,
		MinRateMbps: 500, MaxRateMbps: 2000, MeanRateMbps: 1250,
		Valuation: 2.3e9, Horizon: env.Provider.Horizon(),
		Pairs: env.Pairs[1:], Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	for _, r := range bg {
		r.ID = len(reqs)
		reqs = append(reqs, r)
	}
	for i := 1; i < len(reqs); i++ {
		for j := i; j > 0 && reqs[j].ArrivalSlot < reqs[j-1].ArrivalSlot; j-- {
			reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
		}
	}

	// Each algorithm runs on its own copy of the network.
	report := func(name string, alg router.Algorithm, state *netstate.State) {
		meetingsOK, meetingsLost, bgAccepted := 0, 0, 0
		for _, req := range reqs {
			d, err := alg.Handle(req)
			if err != nil {
				panic(err)
			}
			switch isMeeting := req.RateMbps == 50; {
			case isMeeting && d.Accepted:
				meetingsOK++
			case isMeeting:
				meetingsLost++
			case d.Accepted:
				bgAccepted++
			}
		}
		fmt.Printf("%-8s %-12d %-14d %-12d %d\n", name, meetingsOK, meetingsLost, bgAccepted,
			state.DepletedSatCount(env.Provider.Horizon()-1, 0.2))
	}
	fmt.Printf("recurring 30-min meetings @50 Mbps with heavy background transfers\n\n")
	fmt.Printf("%-8s %-12s %-14s %-12s %s\n", "alg", "meetings ok", "meetings lost", "bg accepted", "depleted sats (end)")
	cear, cearState := newCEAR(env)
	report("CEAR", cear, cearState)
	sspState, err := netstate.New(env.Provider, spacebooking.PaperEnergyConfig())
	if err != nil {
		panic(err)
	}
	ssp, err := baselines.NewSSP(sspState)
	if err != nil {
		panic(err)
	}
	report("SSP", ssp, sspState)
	fmt.Printf("\nCEAR books long low-rate sessions cheaply (they barely move any λ),\n")
	fmt.Printf("while pricing the bulky background transfers according to the\n")
	fmt.Printf("congestion and battery deficits they would cause.\n")
	// Output:
	// recurring 30-min meetings @50 Mbps with heavy background transfers
	//
	// alg      meetings ok  meetings lost  bg accepted  depleted sats (end)
	// CEAR     2            0              72           19
	// SSP      2            0              86           23
	//
	// CEAR books long low-rate sessions cheaply (they barely move any λ),
	// while pricing the bulky background transfers according to the
	// congestion and battery deficits they would cause.
}

// The paper's motivating Earth-observation scenario (Fig. 1): a
// wildfire-monitoring EO satellite books reserved downlinks of its
// imagery, relayed through the broadband LSN to a ground analytics
// centre, at the start of each window in which it can reach the LSN.
func Example_disasterMonitoring() {
	// Include the synthetic sun-synchronous EO fleet (the stand-in for
	// Planet Labs' 223 imaging satellites).
	env, err := spacebooking.NewEnvironment(spacebooking.EnvConfig{
		Scale:          spacebooking.ScaleSmall,
		IncludeEOFleet: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("LSN: %d broadband satellites; EO fleet: %d imaging satellites\n",
		env.Provider.NumSats(), len(env.EOFleet))
	cear, state := newCEAR(env)

	// The analytics centre is the highest-GDP covered site; the imaging
	// satellite is EO-7.
	eo := topology.Endpoint{Kind: topology.EndpointSpace, Index: 7}
	ground := topology.Endpoint{Kind: topology.EndpointGround, Index: 0}
	fmt.Printf("downlink: %s -> analytics centre at (%.1f, %.1f)\n\n",
		env.EOFleet[eo.Index].Name, env.Sites[ground.Index].LatDeg, env.Sites[ground.Index].LonDeg)

	// Contact windows: maximal runs of slots where the EO satellite can
	// reach the LSN at all (contactWindows scans VisibleSats slot by slot).
	windows, err := contactWindows(env.Provider, eo)
	if err != nil {
		panic(err)
	}
	fmt.Printf("EO satellite has %d contact windows covering %.0f%% of the horizon\n",
		len(windows), 100*coverageFraction(windows, env.Provider.Horizon()))

	accepted, rejected := 0, 0
	for i, w := range windows {
		// A 500 Mbps imagery dump for up to 3 minutes, truncated to the
		// contact window if it closes earlier.
		start := w.StartSlot
		end := min(start+2, w.EndSlot)
		d, err := cear.Handle(workload.Request{
			ID: i, Src: eo, Dst: ground,
			StartSlot: start, EndSlot: end,
			RateMbps: 500, Valuation: 2.3e9,
		})
		if err != nil {
			panic(err)
		}
		if d.Accepted {
			accepted++
			fmt.Printf("window t=%3d..%3d: BOOKED  price %10.4g, first-slot path %d hops\n",
				start, end, d.Price, d.Plan.Paths[0].Path.Hops())
		} else {
			rejected++
			fmt.Printf("window t=%3d..%3d: DENIED  %s\n", start, end, d.Reason)
		}
	}
	fmt.Printf("\n%d windows booked, %d denied\n", accepted, rejected)
	fmt.Printf("relay batteries below 20%% at final slot: %d\n",
		state.DepletedSatCount(env.Provider.Horizon()-1, 0.2))
	// Output:
	// LSN: 96 broadband satellites; EO fleet: 223 imaging satellites
	// downlink: EO-007 -> analytics centre at (50.3, 3.6)
	//
	// EO satellite has 5 contact windows covering 62% of the horizon
	// window t=  0..  2: BOOKED  price       68.7, first-slot path 4 hops
	// window t= 17.. 19: BOOKED  price  1.543e+04, first-slot path 9 hops
	// window t= 48.. 50: BOOKED  price       68.7, first-slot path 8 hops
	// window t= 64.. 66: BOOKED  price       2564, first-slot path 4 hops
	// window t= 95.. 95: BOOKED  price      4e-06, first-slot path 4 hops
	//
	// 5 windows booked, 0 denied
	// relay batteries below 20% at final slot: 0
}
