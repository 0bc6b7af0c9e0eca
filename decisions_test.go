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
	"path/filepath"
	"runtime"
	"testing"

	"spacebooking/internal/sim"
	"spacebooking/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/decisions.json from this run")

// decisionPin is what testdata/decisions.json holds for one run: three
// SHA-256 digests over its decision stream, split so a failure says what
// moved, and a trail of one byte per request that locates where.
type decisionPin struct {
	// Accept digests (index, accepted) of every request.
	Accept string `json:"accept"`
	// Plan digests (price bits, hops) of every request; a rejection
	// contributes (0, 0).
	Plan string `json:"plan"`
	// Reason digests the sim.ClassifyReason class of every rejection
	// ("" on accept).
	Reason string `json:"reason"`
	// Trail is hex, one byte per request: the first byte of SHA-256 over
	// that request's own (accepted, price bits, hops, class).
	Trail string `json:"trail"`
}

// pinDecisions admits the run's workload through sim.Engine and digests
// every decision.
func pinDecisions(env *Environment, alg sim.AlgorithmKind, seed int64) (decisionPin, error) {
	rc, err := env.RunConfig(alg, env.WorkloadConfig(env.DefaultArrivalRate(), seed))
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
	accept, plan, reason := sha256.New(), sha256.New(), sha256.New()
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
			class = sim.ClassifyReason(d.Reason)
		}
		put(accept, uint64(i))
		put(accept, ok)
		put(plan, price)
		put(plan, hops)
		reason.Write(append([]byte(class), 0))
		one := sha256.New()
		for _, v := range []uint64{ok, price, hops} {
			put(one, v)
		}
		one.Write([]byte(class))
		trail[i] = one.Sum(nil)[0]
	}
	sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
	return decisionPin{sum(accept), sum(plan), sum(reason), hex.EncodeToString(trail)}, nil
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

// movedDigests names the digests that differ between got and want.
func movedDigests(got, want decisionPin) []string {
	var moved []string
	for _, d := range []struct{ name, got, want string }{
		{"accept", got.Accept, want.Accept},
		{"plan", got.Plan, want.Plan},
		{"reason", got.Reason, want.Reason},
	} {
		if d.got != d.want {
			moved = append(moved, d.name)
		}
	}
	return moved
}
