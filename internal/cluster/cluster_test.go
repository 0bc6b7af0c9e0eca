package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"spacebooking/internal/grid"
	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
	"spacebooking/internal/sim"
	"spacebooking/internal/topology"
	"spacebooking/internal/workload"
)

var testEpoch = time.Date(2026, time.July, 5, 0, 0, 0, 0, time.UTC)

var (
	provOnce   sync.Once
	sharedProv *topology.Provider
	provErr    error
)

func testProvider(t *testing.T) *topology.Provider {
	t.Helper()
	provOnce.Do(func() {
		cfg := topology.DefaultConfig(testEpoch)
		cfg.Walker.Planes = 8
		cfg.Walker.SatsPerPlane = 12
		cfg.Walker.PhasingF = 3
		cfg.Horizon = 48
		sharedProv, provErr = topology.NewProvider(cfg, testSites(), nil)
	})
	if provErr != nil {
		t.Fatal(provErr)
	}
	return sharedProv
}

func testSites() []grid.Site {
	return []grid.Site{
		{ID: 0, LatDeg: 40.7, LonDeg: -74.0},  // New York
		{ID: 1, LatDeg: 34.1, LonDeg: -118.2}, // Los Angeles
		{ID: 2, LatDeg: 51.5, LonDeg: -0.1},   // London
		{ID: 3, LatDeg: 35.7, LonDeg: 139.7},  // Tokyo
	}
}

func testPairs() []workload.Pair {
	ep := func(i int) topology.Endpoint {
		return topology.Endpoint{Kind: topology.EndpointGround, Index: i}
	}
	return []workload.Pair{
		{Src: ep(0), Dst: ep(1)},
		{Src: ep(2), Dst: ep(3)},
		{Src: ep(0), Dst: ep(3)},
	}
}

func testRunConfig(t *testing.T, rate float64, seed int64) sim.RunConfig {
	t.Helper()
	wl := workload.DefaultConfig(48, testPairs(), seed)
	wl.ArrivalRatePerSlot = rate
	wl.Valuation = 1e8
	rc, err := sim.DefaultRunConfig(sim.AlgCEAR, wl)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// admitBatch is the canonical RunBatch for tests: drive each request
// through the shard's engine, exactly like the serving layer does.
func admitBatch(t *testing.T) func(sh *Shard, items []any) {
	return func(sh *Shard, items []any) {
		for _, it := range items {
			req := it.(workload.Request)
			d, err := sh.Engine().Admit(req)
			if err != nil {
				t.Errorf("shard %d: admit %d: %v", sh.ID(), req.ID, err)
				continue
			}
			sh.NoteDecision(d.Accepted)
		}
	}
}

// runCluster pushes every request through an n-shard cluster (routing by
// the given policy) and returns the merged result.
func runCluster(t *testing.T, n int, policy Policy, rc sim.RunConfig, reqs []workload.Request) (*Cluster, *sim.Result) {
	t.Helper()
	c, err := New(testProvider(t), Config{
		Shards:     n,
		Policy:     policy,
		Run:        rc,
		QueueDepth: len(reqs) + 1,
		BatchSize:  8,
		RunBatch:   admitBatch(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for _, req := range reqs {
		sh, err := c.Route(req.Src)
		if err != nil {
			t.Fatalf("route %d: %v", req.ID, err)
		}
		if err := sh.Submit(req); err != nil {
			t.Fatalf("submit %d: %v", req.ID, err)
		}
	}
	c.CloseIntake()
	select {
	case <-c.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("cluster drain timed out")
	}
	res, err := c.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	for i := 0; i < c.NumShards(); i++ {
		if err := c.Shard(i).Engine().State().CheckInvariants(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	return c, res
}

func TestPartitionCoversEverySatellite(t *testing.T) {
	prov := testProvider(t)
	for _, n := range []int{1, 2, 4, 8} {
		pt, err := NewPartition(prov, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		counts := make([]int, n)
		prevOwner := 0
		for sat := 0; sat < prov.NumSats(); sat++ {
			o := pt.SatOwner(sat)
			if o < 0 || o >= n {
				t.Fatalf("n=%d: sat %d owner %d outside [0,%d)", n, sat, o, n)
			}
			if o < prevOwner {
				t.Fatalf("n=%d: owners not contiguous at sat %d (%d after %d)", n, sat, o, prevOwner)
			}
			prevOwner = o
			counts[o]++
		}
		for i, cnt := range counts {
			if cnt == 0 {
				t.Errorf("n=%d: shard %d owns no satellites", n, i)
			}
		}
	}
	// More shards than planes is a configuration error, not a panic.
	if _, err := NewPartition(prov, 9); err == nil {
		t.Error("9 shards over 8 planes accepted")
	}
}

// TestSingleShardMatchesSimRun is the tentpole's seed-swept equivalence
// gate: a one-shard cluster (no interceptor, main registry, passthrough
// Finish) must reproduce sim.Run byte-for-byte on the same workload.
func TestSingleShardMatchesSimRun(t *testing.T) {
	for _, seed := range []int64{1, 1234, 77} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rc := testRunConfig(t, 3, seed)
			want, err := sim.Run(testProvider(t), rc)
			if err != nil {
				t.Fatal(err)
			}
			reqs, err := workload.Generate(rc.Workload)
			if err != nil {
				t.Fatal(err)
			}
			_, got := runCluster(t, 1, RoundRobin, testRunConfig(t, 3, seed), reqs)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("single-shard cluster diverged from sim.Run:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestMultiShardClosedLoop runs seeded closed loops over 2 and 4 shards
// and checks the two-phase ledger reconciliation: every prepare settles
// (prepared == committed + aborted, no leak at Finish), the shard stats
// sum to the submitted workload, and the merged result is coherent.
func TestMultiShardClosedLoop(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			rc := testRunConfig(t, 4, 42)
			rc.Obs = obs.New() // real registry: the cluster.* counters must reconcile
			reqs, err := workload.Generate(rc.Workload)
			if err != nil {
				t.Fatal(err)
			}
			c, res := runCluster(t, n, RoundRobin, rc, reqs)

			if got := c.ctrPrepared.Value(); got != c.ctrCommitted.Value()+c.ctrAborted.Value() {
				t.Errorf("prepared %d != committed %d + aborted %d",
					got, c.ctrCommitted.Value(), c.ctrAborted.Value())
			}
			stats := c.Stats()
			if len(stats) != n {
				t.Fatalf("stats rows = %d, want %d", len(stats), n)
			}
			var submitted, decided, prepared, committed, aborted, cross int64
			for _, st := range stats {
				submitted += st.Submitted
				decided += st.Accepted + st.Rejected
				prepared += st.Prepared
				committed += st.Committed
				aborted += st.Aborted
				cross += st.CrossShard
				if st.QueueDepth != 0 {
					t.Errorf("shard %d queue depth %d after drain", st.ID, st.QueueDepth)
				}
			}
			if submitted != int64(len(reqs)) {
				t.Errorf("submitted = %d, want %d", submitted, len(reqs))
			}
			if decided != int64(len(reqs)) {
				t.Errorf("decided = %d, want %d", decided, len(reqs))
			}
			if prepared != c.ctrPrepared.Value() {
				t.Errorf("per-shard prepared sum %d != cluster counter %d", prepared, c.ctrPrepared.Value())
			}
			if prepared != committed+aborted {
				t.Errorf("per-shard: prepared %d != committed %d + aborted %d", prepared, committed, aborted)
			}
			// With several shards every admission runs through the prepare
			// ledger (local-only bookings prepare then commit), so at least
			// one prepare per accepted booking must have happened.
			if res.Accepted > 0 && prepared == 0 {
				t.Error("accepted bookings but no prepares in multi-shard mode")
			}
			if res.TotalRequests != len(reqs) {
				t.Errorf("merged total = %d, want %d", res.TotalRequests, len(reqs))
			}
			if res.Accepted > 0 && res.Revenue <= 0 {
				t.Error("accepted bookings but no revenue")
			}
			_ = cross
		})
	}
}

func TestRouterLeastLoadedPicksShallowerQueue(t *testing.T) {
	rc := testRunConfig(t, 1, 1)
	c, err := New(testProvider(t), Config{
		Shards:     2,
		Policy:     LeastLoaded,
		Run:        rc,
		QueueDepth: 8,
		RunBatch:   admitBatch(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Loops not started: queue depths are fully controlled. Skew shard 0.
	for i := 0; i < 3; i++ {
		if err := c.Shard(0).Submit(workload.Request{}); err != nil {
			t.Fatal(err)
		}
	}
	src := topology.Endpoint{Kind: topology.EndpointGround, Index: 0}
	for i := 0; i < 5; i++ {
		sh, err := c.Route(src)
		if err != nil {
			t.Fatal(err)
		}
		if sh.ID() != 1 {
			t.Fatalf("route %d picked shard %d under skew, want 1 (depths: %d, %d)",
				i, sh.ID(), c.Shard(0).Depth(), c.Shard(1).Depth())
		}
	}
	// Equal depths tie to the lowest id.
	for i := 0; i < 3; i++ {
		if err := c.Shard(1).Submit(workload.Request{}); err != nil {
			t.Fatal(err)
		}
	}
	sh, err := c.Route(src)
	if err != nil {
		t.Fatal(err)
	}
	if sh.ID() != 0 {
		t.Fatalf("tie routed to shard %d, want 0", sh.ID())
	}
}

// Region affinity must be a pure function of the source endpoint:
// identical verdicts from any number of concurrent callers, regardless
// of GOMAXPROCS.
func TestRouterAffinityDeterministic(t *testing.T) {
	rc := testRunConfig(t, 1, 1)
	c, err := New(testProvider(t), Config{
		Shards:   4,
		Policy:   Affinity,
		Run:      rc,
		RunBatch: admitBatch(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	endpoints := []topology.Endpoint{
		{Kind: topology.EndpointGround, Index: 0},
		{Kind: topology.EndpointGround, Index: 1},
		{Kind: topology.EndpointGround, Index: 2},
		{Kind: topology.EndpointGround, Index: 3},
	}
	want := make([]int, len(endpoints))
	for i, ep := range endpoints {
		sh, err := c.Route(ep)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sh.ID()
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, ep := range endpoints {
					sh, err := c.Route(ep)
					if err != nil {
						errs <- err
						return
					}
					if sh.ID() != want[i] {
						errs <- fmt.Errorf("endpoint %d routed to %d, want %d (GOMAXPROCS %d)",
							i, sh.ID(), want[i], procs)
						return
					}
				}
			}()
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		errs = nil
	}
	// NY and LA sit in different longitude buckets from London/Tokyo.
	if want[0] == want[3] && want[1] == want[2] && want[0] == want[1] {
		t.Errorf("all four sites on one shard: affinity buckets = %v", want)
	}
}

func TestTokenBucketShedsOverloadedShard(t *testing.T) {
	rc := testRunConfig(t, 1, 1)
	now := testEpoch
	c, err := New(testProvider(t), Config{
		Shards:     2,
		Policy:     RoundRobin,
		Run:        rc,
		TokenRate:  1, // 1 req/s, burst 1
		TokenBurst: 1,
		Now:        func() time.Time { return now }, // frozen: no refill
		RunBatch:   admitBatch(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	src := topology.Endpoint{Kind: topology.EndpointGround, Index: 0}
	// Two routes succeed (one token per shard), then every shard is dry.
	for i := 0; i < 2; i++ {
		if _, err := c.Route(src); err != nil {
			t.Fatalf("route %d: %v", i, err)
		}
	}
	shed := 0
	for i := 0; i < 4; i++ {
		_, err := c.Route(src)
		if !errors.Is(err, ErrShardOverloaded) {
			t.Fatalf("route with dry buckets: err = %v, want ErrShardOverloaded", err)
		}
		shed++
	}
	var counted int64
	for i := 0; i < 2; i++ {
		counted += c.Shard(i).statTokenShed.Load()
	}
	if counted != int64(shed) {
		t.Errorf("token_shed counters = %d, want %d", counted, shed)
	}
	// Advancing the clock refills the buckets.
	now = now.Add(2 * time.Second)
	if _, err := c.Route(src); err != nil {
		t.Fatalf("route after refill: %v", err)
	}
}

// TestPreparedLeakFailsLoudly: an interceptor that walks away from its
// Prepared must surface ErrPreparedLeak from the engine's Finish via
// the cluster.
func TestPreparedLeakFailsLoudly(t *testing.T) {
	rc := testRunConfig(t, 2, 7)
	reqs, err := workload.Generate(rc.Workload)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(testProvider(t), Config{
		Shards:     1,
		Run:        rc,
		QueueDepth: len(reqs) + 1,
		RunBatch:   admitBatch(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: leak every prepared reservation instead of settling it.
	c.Shard(0).state.SetCommitInterceptor(func(p *netstate.Prepared) error {
		return nil // neither Commit nor Abort: a leak
	})
	c.Start()
	accepted := false
	for _, req := range reqs {
		sh, err := c.Route(req.Src)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.Submit(req); err != nil {
			t.Fatal(err)
		}
		accepted = true
	}
	if !accepted {
		t.Skip("empty workload")
	}
	c.CloseIntake()
	<-c.Done()
	res, err := c.Finish()
	if c.Shard(0).state.PreparedOutstanding() == 0 {
		t.Skip("no booking was accepted, nothing leaked")
	}
	if err == nil {
		t.Fatal("leaked prepares not reported by Finish")
	}
	if res == nil {
		t.Fatal("leak error must still carry the merged result")
	}
}
