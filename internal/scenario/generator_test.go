package scenario

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"spacebooking/internal/grid"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

// testBinding builds a synthetic binding: three ground pairs over four
// sites spread in longitude, plus one EO downlink pair.
func testBinding(horizon int) Binding {
	g := func(i int) topology.Endpoint { return topology.Endpoint{Kind: topology.EndpointGround, Index: i} }
	return Binding{
		Horizon: horizon,
		Pairs: []workload.Pair{
			{Src: g(0), Dst: g(1)},
			{Src: g(2), Dst: g(3)},
			{Src: topology.Endpoint{Kind: topology.EndpointSpace, Index: 0}, Dst: g(1)},
		},
		Sites: []grid.Site{
			{ID: 0, LatDeg: 40.7, LonDeg: -74},    // New York
			{ID: 1, LatDeg: 51.5, LonDeg: -0.1},   // London
			{ID: 2, LatDeg: 35.7, LonDeg: 139.7},  // Tokyo
			{ID: 3, LatDeg: -33.9, LonDeg: 151.2}, // Sydney
		},
		DefaultValuation: 1e8,
	}
}

func multiClassSpec() Spec {
	s := validSpec()
	s.Classes[0].Pairs = []int{0, 1}
	s.Classes = append(s.Classes,
		Class{
			Name:    "bulk",
			Arrival: ArrivalSpec{Process: ProcessGamma, RatePerSlot: 1, Shape: 2},
			Mix: MixSpec{
				MinDurationSlots: 3, MaxDurationSlots: 10,
				MinRateMbps: 500, MaxRateMbps: 2000, MeanRateMbps: 900,
			},
			Diurnal: &DiurnalSpec{PeriodSlots: 96, Amplitude: 0.5, SolarPhase: true},
		},
		Class{
			Name:    "eo",
			Arrival: ArrivalSpec{Process: ProcessWeibull, RatePerSlot: 0.5, Shape: 0.8},
			Mix: MixSpec{
				MinDurationSlots: 1, MaxDurationSlots: 2,
				MinRateMbps: 800, MaxRateMbps: 1600, MeanRateMbps: 1100,
			},
			Pairs: []int{2},
		},
	)
	return s
}

// TestGeneratorSeedSweptAcrossGOMAXPROCS: for every seed, the sequence
// over all request-mix classes (Poisson, Gamma and Weibull arrivals with
// distinct mixes) is the reference, and concurrent generations under
// several GOMAXPROCS settings must reproduce it byte-identically — the
// sequence is a pure function of (spec, binding).
func TestGeneratorSeedSweptAcrossGOMAXPROCS(t *testing.T) {
	b := testBinding(200)
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, seed := range []int64{1, 7, 42, 1001} {
		spec := multiClassSpec()
		spec.Seed = seed
		reference, err := Generate(spec, b)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(reference) == 0 {
			t.Fatalf("seed %d: empty workload", seed)
		}
		classes := map[string]bool{}
		for _, r := range reference {
			classes[r.Class] = true
		}
		for _, c := range spec.Classes {
			if !classes[c.Name] {
				t.Fatalf("seed %d: class %q produced no arrivals; the sweep must cover every mix", seed, c.Name)
			}
		}
		for _, procs := range []int{1, 2, max(4, orig)} {
			runtime.GOMAXPROCS(procs)
			const workers = 4
			results := make([][]workload.Request, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					results[w], _ = Generate(spec, b)
				}(w)
			}
			wg.Wait()
			for w, got := range results {
				if !reflect.DeepEqual(got, reference) {
					t.Fatalf("seed %d GOMAXPROCS=%d worker %d: sequence diverges from reference", seed, procs, w)
				}
			}
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	spec := multiClassSpec()
	b := testBinding(200)
	first, err := Generate(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Generate(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("same seed produced different sequences")
	}
	spec.Seed++
	third, err := Generate(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first, third) {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestGeneratorOrderingAndBounds(t *testing.T) {
	spec := multiClassSpec()
	b := testBinding(150)
	seq, _, err := arrivals(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	lastTime := math.Inf(-1)
	lastSlot := -1
	wantID := 0
	classes := make(map[string]int)
	for _, a := range seq {
		req := a.Req
		if a.Time < lastTime {
			t.Fatalf("request %d time %v precedes %v", req.ID, a.Time, lastTime)
		}
		lastTime = a.Time
		if req.ArrivalSlot != int(a.Time) {
			t.Fatalf("request %d slot %d != floor(%v)", req.ID, req.ArrivalSlot, a.Time)
		}
		if req.ArrivalSlot < lastSlot {
			t.Fatalf("request %d slot %d precedes %d", req.ID, req.ArrivalSlot, lastSlot)
		}
		lastSlot = req.ArrivalSlot
		if req.ID != wantID {
			t.Fatalf("request ID %d, want %d", req.ID, wantID)
		}
		wantID++
		if err := req.Validate(150); err != nil {
			t.Fatal(err)
		}
		if req.Valuation != 1e8 {
			t.Fatalf("request %d valuation %v, want binding default", req.ID, req.Valuation)
		}
		if a.HoldSlots < 1 {
			t.Fatalf("request %d hold %v < 1", req.ID, a.HoldSlots)
		}
		classes[req.Class]++
	}
	if wantID == 0 {
		t.Fatal("no arrivals")
	}
	for _, name := range []string{"web", "bulk", "eo"} {
		if classes[name] == 0 {
			t.Fatalf("class %q generated no requests (got %v)", name, classes)
		}
	}
}

// TestClassPairRestriction checks per-class pair subsets are honoured:
// the "eo" class above may only use pair 2 (the EO downlink pair).
func TestClassPairRestriction(t *testing.T) {
	spec := multiClassSpec()
	b := testBinding(200)
	reqs, err := Generate(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if r.Class == "eo" && r.Src.Kind != topology.EndpointSpace {
			t.Fatalf("eo request %d uses non-space source %+v", r.ID, r.Src)
		}
		if r.Class == "web" && r.Src.Kind != topology.EndpointGround {
			t.Fatalf("web request %d uses space source", r.ID)
		}
	}
}

// TestFlashCrowdBoostsWindow: with factor 4 over a quarter of the
// horizon, the in-window arrival rate should be clearly elevated.
func TestFlashCrowdBoostsWindow(t *testing.T) {
	spec := validSpec()
	spec.Classes[0].Arrival.RatePerSlot = 4
	spec.Events = []Event{{Kind: EventFlashCrowd, StartSlot: 100, EndSlot: 199, Factor: 4}}
	b := testBinding(400)
	reqs, err := Generate(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	in, out := 0, 0
	for _, r := range reqs {
		if r.ArrivalSlot >= 100 && r.ArrivalSlot <= 199 {
			in++
		} else {
			out++
		}
	}
	inRate := float64(in) / 100
	outRate := float64(out) / 300
	if inRate < 2.5*outRate {
		t.Fatalf("flash crowd too weak: in-window rate %v vs baseline %v", inRate, outRate)
	}
}

// TestRegionalOutageSilencesRegion: an outage centred on New York with
// factor 0 must stop pair-0 (NY-sourced) arrivals inside the window
// while pair 1 (Tokyo-sourced) keeps flowing.
func TestRegionalOutageSilencesRegion(t *testing.T) {
	spec := validSpec()
	spec.Classes[0].Arrival.RatePerSlot = 4
	spec.Events = []Event{{
		Kind: EventRegionalOutage, StartSlot: 50, EndSlot: 150,
		CenterLatDeg: 40.7, CenterLonDeg: -74, RadiusKm: 500,
	}}
	b := testBinding(200)
	reqs, err := Generate(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	nyIn, tokyoIn := 0, 0
	for _, r := range reqs {
		if r.ArrivalSlot < 50 || r.ArrivalSlot > 150 || r.Src.Kind != topology.EndpointGround {
			continue
		}
		switch r.Src.Index {
		case 0:
			nyIn++
		case 2:
			tokyoIn++
		}
	}
	if nyIn != 0 {
		t.Fatalf("outage leaked: %d NY-sourced arrivals inside the window", nyIn)
	}
	if tokyoIn == 0 {
		t.Fatal("outage silenced the unaffected region too")
	}
}

// TestEOBurstShiftsMixTowardSpacePairs: a strong EO burst should raise
// the share of space-sourced arrivals inside its window.
func TestEOBurstShiftsMixTowardSpacePairs(t *testing.T) {
	spec := validSpec()
	spec.Classes[0].Arrival.RatePerSlot = 4
	spec.Classes[0].Pairs = nil // all pairs, space one included
	spec.Events = []Event{{Kind: EventEOBurst, StartSlot: 100, EndSlot: 200, Factor: 10}}
	b := testBinding(400)
	reqs, err := Generate(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	var inSpace, inAll, outSpace, outAll float64
	for _, r := range reqs {
		space := r.Src.Kind == topology.EndpointSpace
		if r.ArrivalSlot >= 100 && r.ArrivalSlot <= 200 {
			inAll++
			if space {
				inSpace++
			}
		} else {
			outAll++
			if space {
				outSpace++
			}
		}
	}
	if inAll == 0 || outAll == 0 {
		t.Fatal("windows empty")
	}
	if inSpace/inAll < 2*(outSpace/outAll) {
		t.Fatalf("EO burst too weak: in-window space share %v vs baseline %v",
			inSpace/inAll, outSpace/outAll)
	}
}

func TestSolarPhaseRequiresSites(t *testing.T) {
	spec := validSpec()
	spec.Classes[0].Diurnal = &DiurnalSpec{PeriodSlots: 96, Amplitude: 0.4, SolarPhase: true}
	b := testBinding(96)
	b.Sites = nil
	if _, _, err := arrivals(spec, b); err == nil {
		t.Fatal("solar-phased spec accepted without sites")
	}
}

func TestSpecHorizonOverride(t *testing.T) {
	spec := validSpec()
	spec.Horizon = 50
	b := testBinding(200)
	reqs, err := Generate(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if r.ArrivalSlot >= 50 {
			t.Fatalf("arrival at slot %d past spec horizon 50", r.ArrivalSlot)
		}
	}
	spec.Horizon = 500
	if _, _, err := arrivals(spec, b); err == nil {
		t.Fatal("spec horizon beyond binding accepted")
	}
}

func TestGeneratorRejectsBadBinding(t *testing.T) {
	spec := validSpec()
	if _, _, err := arrivals(spec, Binding{Horizon: 0, Pairs: testBinding(10).Pairs}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, _, err := arrivals(spec, Binding{Horizon: 10}); err == nil {
		t.Fatal("empty pairs accepted")
	}
	spec.Classes[0].Pairs = []int{99}
	if _, _, err := arrivals(spec, testBinding(10)); err == nil {
		t.Fatal("out-of-range pair index accepted")
	}
	spec = validSpec()
	spec.Classes[0].Mix.Valuation = 0
	b := testBinding(10)
	b.DefaultValuation = 0
	if _, _, err := arrivals(spec, b); err == nil {
		t.Fatal("missing valuation accepted")
	}
}

// TestPoissonClassMatchesDeclaredRate: the realised arrival count of a
// flat poisson class should match rate × horizon within noise.
func TestPoissonClassMatchesDeclaredRate(t *testing.T) {
	spec := validSpec()
	spec.Classes[0].Arrival.RatePerSlot = 3
	horizon := 2000
	b := testBinding(horizon)
	reqs, err := Generate(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	want := 3.0 * float64(horizon)
	got := float64(len(reqs))
	// 4 sigma for a Poisson count.
	if math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Fatalf("realised %v arrivals, want %v ± %v", got, want, 4*math.Sqrt(want))
	}
}
