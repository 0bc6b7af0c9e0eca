package spacebooking

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"

	"spacebooking/internal/grid"
	"spacebooking/internal/scenario"
	"spacebooking/internal/sim"
	"spacebooking/internal/topology"
	"spacebooking/internal/trace"
	"spacebooking/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/decisions.json from this run")

// decisionPin is what testdata/decisions.json holds for one run: four
// SHA-256 digests over its decision stream, split so a failure says what
// moved, and a trail of one byte per request that locates where.
type decisionPin struct {
	// Accept digests (index, accepted) of every request.
	Accept string `json:"accept"`
	// Plan digests (price bits, hops) of every request; a rejection
	// contributes (0, 0).
	Plan string `json:"plan"`
	// Reason digests the trace.ClassifyReason class of every rejection
	// ("" on accept).
	Reason string `json:"reason"`
	// Text digests the full reason text of every rejection ("" on
	// accept), the string audit logs and reservations carry.
	Text string `json:"text"`
	// Trail is hex, one byte per request: the first byte of SHA-256 over
	// that request's own (accepted, price bits, hops, class).
	Trail string `json:"trail"`
}

// pinDecisions admits the run's workload through sim.Engine and digests
// every decision.
func pinDecisions(env *Environment, alg sim.AlgorithmKind, seed int64) (decisionPin, error) {
	rc, err := sim.DefaultRunConfig(alg, env.WorkloadConfig(env.DefaultArrivalRate(), seed))
	if err != nil {
		return decisionPin{}, err
	}
	reqs, err := workload.Generate(rc.Workload)
	if err != nil {
		return decisionPin{}, err
	}
	eng, err := sim.NewEngine(env.Provider, rc)
	if err != nil {
		return decisionPin{}, err
	}
	accept, plan, reason, text := sha256.New(), sha256.New(), sha256.New(), sha256.New()
	trail := make([]byte, len(reqs))
	var buf [8]byte
	put := func(h hash.Hash, v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i, req := range reqs {
		d, err := eng.Admit(req)
		if err != nil {
			return decisionPin{}, err
		}
		var ok, price, hops uint64
		class := ""
		if d.Accepted {
			ok, price, hops = 1, math.Float64bits(d.Price), uint64(d.Plan.TotalHops())
		} else {
			class = trace.ClassifyReason(d.Reason)
		}
		put(accept, uint64(i))
		put(accept, ok)
		put(plan, price)
		put(plan, hops)
		reason.Write(append([]byte(class), 0))
		text.Write(append([]byte(d.Reason), 0))
		one := sha256.New()
		for _, v := range []uint64{ok, price, hops} {
			put(one, v)
		}
		one.Write([]byte(class))
		trail[i] = one.Sum(nil)[0]
	}
	sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
	return decisionPin{sum(accept), sum(plan), sum(reason), sum(text), hex.EncodeToString(trail)}, nil
}

// TestDecisionGolden pins the decisions themselves, down to the last bit
// of every quoted price: CEAR and SSP on the small preset (seeds 1-10)
// and CEAR on the medium preset (seeds 1-3). Floating-point contraction
// differs between architectures, so GOARCH is part of the key, and an
// architecture with no pins is reported, not failed. A change that moves
// decisions re-pins with `go test -run TestDecisionGolden -update` in the
// same commit.
func TestDecisionGolden(t *testing.T) {
	path := filepath.Join("testdata", "decisions.json")
	pinned := map[string]decisionPin{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &pinned); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	} else if !*update {
		t.Fatal(err)
	}
	type run struct {
		preset string
		env    *Environment
		alg    sim.AlgorithmKind
		seed   int64
	}
	var runs []run
	for seed := int64(1); seed <= 10; seed++ {
		for _, alg := range []sim.AlgorithmKind{sim.AlgCEAR, sim.AlgSSP} {
			runs = append(runs, run{"small", smallEnv(t), alg, seed})
		}
	}
	if !raceEnabled {
		for seed := int64(1); seed <= 3; seed++ {
			runs = append(runs, run{"medium", mediumEnv(t), sim.AlgCEAR, seed})
		}
	}
	for _, r := range runs {
		key := fmt.Sprintf("%s/%s/seed=%d/%s", r.preset, r.alg, r.seed, runtime.GOARCH)
		got, err := pinDecisions(r.env, r.alg, r.seed)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		want, ok := pinned[key]
		switch {
		case *update:
			pinned[key] = got
		case !ok:
			t.Logf("%s: unpinned", key)
		case got != want:
			first := 0
			for first < len(got.Trail) && first < len(want.Trail) && got.Trail[first] == want.Trail[first] {
				first++
			}
			t.Errorf("%s: moved %v; first differing request %d (%d requests, %d pinned)",
				key, movedDigests(got, want), first/2, len(got.Trail)/2, len(want.Trail)/2)
		}
	}
	if *update {
		data, err := json.MarshalIndent(pinned, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecisionGoldenWithoutFMA re-runs TestDecisionGolden and
// TestSiteTablesPinned in this test binary with GODEBUG=cpu.fma=off. On
// amd64 the standard library picks some math lanes by CPU feature, so a
// pin that holds only with FMA holds only on the hosts that have it.
func TestDecisionGoldenWithoutFMA(t *testing.T) {
	switch {
	case runtime.GOARCH != "amd64":
		t.Skip("cpu.fma selects a math lane only on amd64")
	case raceEnabled:
		t.Skip("a race build checks no more here than TestDecisionGolden does")
	case *update:
		t.Skip("re-pinning")
	}
	godebug := "cpu.fma=off"
	if prev := os.Getenv("GODEBUG"); prev != "" {
		godebug = prev + "," + godebug
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^(TestDecisionGolden|TestSiteTablesPinned)$", "-test.count", "1")
	cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("the pins with GODEBUG=%s: %v\n%s", godebug, err, out)
	}
}

// TestSiteTablesPinned pins the GDP-filtered site tables bit for bit at
// the medium and paper tilings (subdivisions 4 and 5) and three sizes up
// to the paper's 1 761 sites. The weights rank the sites every preset
// draws its request pairs from, so they must not move with the host CPU
// either; TestDecisionGoldenWithoutFMA re-runs this test without FMA.
func TestSiteTablesPinned(t *testing.T) {
	pins := map[string]string{
		"4/60":   "aa27ea1dc6cdfea177497b15469f3d57caf5ea6fa5dcb058c9d411d2b33f791d",
		"4/200":  "96f9aee9bf141ea469e9445903ee36f9654863c23234d4928a9b564d997e91b2",
		"4/1761": "f73daaba1f8bdb5477463577ff85a9d9f091105b549d9be51437428dacb03305",
		"5/60":   "6055e1a05eb9e7acdd9978916abb92f88ef002b288226f845c4febc5beb26ee7",
		"5/200":  "38e00458ff22c1022f26292be0d2e68f378aff23ad682664fd44d8e9ace9567e",
		"5/1761": "18c00d82171492dff716eda5abff56523311135462e9a4f168df60e3cc863317",
	}
	for _, subdivisions := range []int{4, 5} {
		all, err := grid.TriangularSites(subdivisions)
		if err != nil {
			t.Fatal(err)
		}
		for _, keep := range []int{60, 200, 1761} {
			sites, err := grid.FilterByGDP(all, keep)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, s := range sites {
				for _, v := range []uint64{uint64(s.ID), math.Float64bits(s.LatDeg), math.Float64bits(s.LonDeg), math.Float64bits(s.Weight)} {
					h.Write(binary.LittleEndian.AppendUint64(nil, v))
				}
			}
			key := fmt.Sprintf("%d/%d", subdivisions, keep)
			if got := hex.EncodeToString(h.Sum(nil)); got != pins[key] {
				t.Errorf("%s sites: digest %s, pinned %s", key, got, pins[key])
			}
		}
	}
}

// movedDigests names the digests that differ between got and want.
func movedDigests(got, want decisionPin) []string {
	var moved []string
	for _, d := range []struct{ name, got, want string }{
		{"accept", got.Accept, want.Accept},
		{"plan", got.Plan, want.Plan},
		{"reason", got.Reason, want.Reason},
		{"text", got.Text, want.Text},
	} {
		if d.got != d.want {
			moved = append(moved, d.name)
		}
	}
	return moved
}

// scenarioPins holds the SHA-256 of scenario.Generate's requests (as
// JSON) for two specs on the small preset's binding, and of the
// Erlang-B reports spacestat's spec check prints for specs/erlangb.json.
var scenarioPins = map[string]string{
	"bench seed=1":       "2a9e664de197c89cef16819f3bf7be5ee8ca58332f50e003896abd5931a8a02c",
	"bench seed=2":       "2959a4523418f571d3ea9f8dd162cffdb4db06c2a3125bf9d0f13cd89ddccd9c",
	"bench seed=3":       "b53d522fedd2a18bb11ef9a9a6210a7cf9c60b035b6eed6f7391afc34603e740",
	"smoke seed=1":       "a36618045f35ea47a0f9cb22713d2ca9edbd3105fa84334a44fb16d6622c6d4a",
	"smoke seed=2":       "71e8914091ff11207dc74b5a4c15a162c14b958b8c5e574f7bf81aa5464ce2c1",
	"smoke seed=3":       "f247aa55137a2759e9cd3bf0a836e57d8049f4feeaa20a1d5cd36fbbf6aeb164",
	"erlangb servers=5":  "77b37ebc1cd4a7654d712785cb14301c1fb75ba7433c20b54cf47f3201a23236",
	"erlangb servers=20": "0554cbe6b58466b15a3e8b3c8388fd02a47ad1de297f7f8b9e4c1bfb8ef3e46f",
	"erlangb servers=40": "a14b6b510da6f4d3f64997a7a223391cac5aaf8a0e4bb2f462558fc3138b14a3",
}

// TestScenarioStreamsPinned pins the generated request streams and the
// Erlang-B reports bit for bit: their order, their IDs and every sampled
// attribute. The generator's own tests check order, bounds and
// run-to-run determinism only. The pins were taken where math.Exp runs
// its amd64 FMA lane; elsewhere the environment's GDP weights and
// bench.json's Weibull draws (math.Pow) may move, and the test is
// skipped.
func TestScenarioStreamsPinned(t *testing.T) {
	// The two amd64 lanes of math.Exp round e^0.375 differently.
	if runtime.GOARCH != "amd64" || math.Float64bits(math.Exp(0.375)) != 0x3ff747a513dbef6b {
		t.Skip("math.Exp does not take its amd64 FMA lane here")
	}
	digest := func(key string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != scenarioPins[key] {
			t.Errorf("%s: digest %s, pinned %s", key, got, scenarioPins[key])
		}
	}
	env := smallEnv(t)
	for _, name := range []string{"bench", "smoke"} {
		spec, err := scenario.Load(filepath.Join("specs", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			spec.Seed = seed
			reqs, err := scenario.Generate(spec, env.ScenarioBinding())
			if err != nil {
				t.Fatal(err)
			}
			digest(fmt.Sprintf("%s seed=%d", name, seed), reqs)
		}
	}
	spec, err := scenario.Load(filepath.Join("specs", "erlangb.json"))
	if err != nil {
		t.Fatal(err)
	}
	// spacestat spec's binding: one pair, the spec's own horizon.
	b := scenario.Binding{
		Horizon: spec.Horizon,
		Pairs: []workload.Pair{{
			Src: topology.Endpoint{Kind: topology.EndpointGround, Index: 0},
			Dst: topology.Endpoint{Kind: topology.EndpointGround, Index: 1},
		}},
		DefaultValuation: 1,
	}
	for _, servers := range []int{5, 20, 40} {
		r, err := scenario.ValidateErlangB(spec, b, servers)
		if err != nil {
			t.Fatal(err)
		}
		digest(fmt.Sprintf("erlangb servers=%d", servers), r)
	}
}
