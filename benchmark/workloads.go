package main

import (
	"fmt"
	"math"

	"spacebooking"
	"spacebooking/internal/obs"
	"spacebooking/internal/sim"
	"spacebooking/internal/workload"
)

type loopMode int

const (
	modeDirect       loopMode = iota // sim.Engine.Admit from one goroutine
	modeServedClosed                 // POST /v1/book, each connection waits for its reply
	modeServedOpen                   // POST /v1/book on a seeded Poisson schedule
)

// workloadSpec fixes one workload. Scales, pair counts and rates are the
// issue's and never change; only the number of repetitions follows
// -seconds.
type workloadSpec struct {
	Name string
	Why  string

	Scale    spacebooking.Scale
	NumPairs int     // 0: the scale's default
	RateMult float64 // arrival rate as a multiple of the scale's default
	Mode     loopMode

	// Streams is the number of distinct request streams a run replays;
	// stream i is generated from seed+i, and every pass over a stream is a
	// lap on a fresh engine or server.
	Streams int
	// Prefix, when positive, cuts every stream to its first Prefix
	// requests: one whole paper-scale stream runs ~25 s, more than a run
	// may measure. Shorter prefixes vary too much from seed to seed (the
	// work per request over the first 480 differs by 14% across ten
	// seeds, over the first 960 by 5%).
	Prefix int
	// Reps is how many identical laps each stream gets at the default
	// -seconds (BENCHMARK.json's run_seconds), sized so that they take
	// about that long on the reference host. The host slows any one lap by
	// 3-25% at random; a request's time is the best of its repetitions,
	// which is the part of the time the code, not the host, decides.
	Reps int
	// OpenRate is the open-loop offered rate in requests per second.
	OpenRate float64
}

// Every load comes from this one process over at most nproc connections.
const servedConns = 2

// pairSeed fixes the source-destination pairs: they are part of the
// deployment under test, like the constellation. --seed drives the
// request streams (and the open-loop schedule) only.
const pairSeed = 1

var workloads = []workloadSpec{
	{
		Name:  "full_direct",
		Why:   "Paper scale (1584 sats, 1761 sites, 10 pairs, 10 req/min): admission search plus energy pricing is ~100% of the time, so every hot-path optimisation must show here.",
		Scale: spacebooking.ScaleFull, RateMult: 1, Mode: modeDirect,
		Streams: 1, Prefix: 960, Reps: 2,
	},
	{
		Name:  "medium_direct_wide",
		Why:   "288 sats, 64 pairs at 2.5x rate: accept rate ~0.33 (rollbacks beside commits) and 16x the (pair, slot) working set, so a per-pair cache or commit shortcut predicts no gain here.",
		Scale: spacebooking.ScaleMedium, NumPairs: 64, RateMult: 2.5, Mode: modeDirect,
		Streams: 1, Reps: 6,
	},
	{
		Name:  "small_served_closed",
		Why:   "96 sats behind net/http with 2 closed-loop connections and pinned slots: admission is ~0.3 ms, so HTTP, JSON, queue and batch are about half of each round trip; serving-layer changes show here.",
		Scale: spacebooking.ScaleSmall, RateMult: 1, Mode: modeServedClosed,
		Streams: 10, Reps: 18,
	},
	{
		Name:  "medium_served_open",
		Why:   "288 sats served on a seeded Poisson schedule at a fixed 200 req/s: independent users form an open loop, so queue and batch wait show in lat_ms_p95 timed from each request's due time.",
		Scale: spacebooking.ScaleMedium, RateMult: 1, Mode: modeServedOpen,
		Streams: 1, Reps: 4, OpenRate: 200,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// smokeShape shrinks a workload to ScaleSmall and two short laps, keeping
// its loop shape: the unit tests drive every code path in a few seconds.
func smokeShape(w workloadSpec) workloadSpec {
	w.Scale = spacebooking.ScaleSmall
	if w.NumPairs > 8 {
		w.NumPairs = 8
	}
	w.Streams, w.Reps = 1, 2
	if w.Prefix > 0 {
		w.Prefix = 100
	}
	if w.OpenRate > 0 {
		w.OpenRate = 2000
	}
	return w
}

// plan is a workload sized for one run.
type plan struct {
	spec workloadSpec
	seed int64
	reps int
}

func makePlan(spec workloadSpec, seed int64, seconds int) plan {
	reps := int(math.Round(float64(spec.Reps) * float64(seconds) / defaultSeconds))
	if reps < 1 {
		reps = 1
	}
	return plan{spec: spec, seed: seed, reps: reps}
}

func buildEnv(spec workloadSpec) (*spacebooking.Environment, error) {
	return spacebooking.NewEnvironment(spacebooking.EnvConfig{
		Scale:    spec.Scale,
		NumPairs: spec.NumPairs,
		PairSeed: pairSeed,
	})
}

// genStream generates request stream i: the paper's workload over the
// environment's pairs, seeded seed+i, cut to the workload's prefix.
func (p plan) genStream(env *spacebooking.Environment, i int) ([]workload.Request, workload.Config, error) {
	wl := env.WorkloadConfig(env.DefaultArrivalRate()*p.spec.RateMult, p.seed+int64(i))
	reqs, err := workload.Generate(wl)
	if err != nil {
		return nil, wl, err
	}
	if len(reqs) == 0 {
		return nil, wl, fmt.Errorf("workload %s: empty stream for seed %d", p.spec.Name, wl.Seed)
	}
	if p.spec.Prefix > 0 && p.spec.Prefix < len(reqs) {
		reqs = reqs[:p.spec.Prefix]
	}
	return reqs, wl, nil
}

// cearConfig is the one engine configuration every workload uses:
// AlgCEAR with the paper's pricing and thresholds, one shard. reg is nil
// in timed runs.
func cearConfig(wl workload.Config, reg *obs.Registry) (sim.RunConfig, error) {
	rc, err := sim.DefaultRunConfig(sim.AlgCEAR, wl)
	if err != nil {
		return rc, err
	}
	rc.Obs = reg
	return rc, nil
}
