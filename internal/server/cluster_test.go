package server

import (
	"context"
	"net/http"
	"testing"
	"time"

	"spacebooking/internal/cluster"
	"spacebooking/internal/obs"
	"spacebooking/internal/workload"
)

// TestShardedServerEndToEnd drives a two-shard daemon through the HTTP
// surface: bookings decide, /v1/stats grows a shard section, the drain
// is graceful, and the prepare ledger reconciles.
func TestShardedServerEndToEnd(t *testing.T) {
	rc := testRunConfig(t, 3, 99)
	rc.Obs = obs.New()
	s, hs := newTestServer(t, Config{
		Run:    rc,
		Shards: 2,
		Router: cluster.RoundRobin,
	})
	if s.NumShards() != 2 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}

	reqs, err := workload.Generate(rc.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) < 10 {
		t.Fatalf("workload too small: %d requests", len(reqs))
	}
	decided := 0
	for i, req := range reqs {
		arrival, start, end := req.ArrivalSlot, req.StartSlot, req.EndSlot
		code, out := postBook(t, hs.URL, BookRequest{
			Src:         refOf(req.Src),
			Dst:         refOf(req.Dst),
			RateMbps:    req.RateMbps,
			Valuation:   req.Valuation,
			ArrivalSlot: &arrival,
			StartSlot:   &start,
			EndSlot:     &end,
		})
		if code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d (%+v)", i, code, out)
		}
		if st := out.Reservation.Status; st != StatusAccepted && st != StatusRejected {
			t.Fatalf("request %d: non-terminal status %q", i, st)
		}
		decided++
	}

	st := s.StatsSnapshot()
	if len(st.Shards) != 2 {
		t.Fatalf("stats shard section has %d rows, want 2", len(st.Shards))
	}
	if st.Router != "round-robin" {
		t.Errorf("router = %q", st.Router)
	}
	var submitted, prepared, committed, aborted int64
	for _, row := range st.Shards {
		submitted += row.Submitted
		prepared += row.Prepared
		committed += row.Committed
		aborted += row.Aborted
		if row.Submitted == 0 {
			t.Errorf("shard %d received no bookings under round-robin", row.ID)
		}
	}
	if submitted != int64(decided) {
		t.Errorf("shards saw %d bookings, served %d", submitted, decided)
	}
	if st.Accepted > 0 && prepared == 0 {
		t.Error("accepted bookings but no prepares in two-shard mode")
	}
	if prepared != committed+aborted {
		t.Errorf("prepared %d != committed %d + aborted %d", prepared, committed, aborted)
	}

	// Graceful drain: Shutdown completes and the merged result is
	// available with no prepare-ledger leak surfacing as an error.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	checkShardInvariants(t, s)
	if res.TotalRequests != decided {
		t.Errorf("merged result total = %d, want %d", res.TotalRequests, decided)
	}
	// The cluster-wide obs counters reconcile with the shard stats.
	reg := rc.Obs
	if got := reg.Counter("cluster.prepared.total").Value(); got != prepared {
		t.Errorf("cluster.prepared.total = %d, shard stats sum %d", got, prepared)
	}
	if got := reg.Counter("cluster.aborted.total").Value(); got != aborted {
		t.Errorf("cluster.aborted.total = %d, shard stats sum %d", got, aborted)
	}
}

// TestShardTokenBucketSheds429 freezes the wall clock so the per-shard
// buckets never refill: once both shards' single tokens are spent every
// booking must shed with HTTP 429 and reason "overloaded_shard".
func TestShardTokenBucketSheds429(t *testing.T) {
	rc := testRunConfig(t, 1, 5)
	frozen := testEpoch
	s, hs := newTestServer(t, Config{
		Run:             rc,
		Shards:          2,
		Router:          cluster.RoundRobin,
		ShardTokenRate:  1,
		ShardTokenBurst: 1,
		Now:             func() time.Time { return frozen },
	})
	_ = s
	book := func() (int, BookResponse) {
		arrival, start, end := 0, 0, 0
		return postBook(t, hs.URL, BookRequest{
			Src:         EndpointRef{Kind: "ground", Index: 0},
			Dst:         EndpointRef{Kind: "ground", Index: 1},
			RateMbps:    100,
			Valuation:   1e8,
			ArrivalSlot: &arrival,
			StartSlot:   &start,
			EndSlot:     &end,
		})
	}
	for i := 0; i < 2; i++ {
		if code, out := book(); code != http.StatusOK {
			t.Fatalf("booking %d within burst: HTTP %d (%+v)", i, code, out)
		}
	}
	for i := 0; i < 3; i++ {
		code, out := book()
		if code != http.StatusTooManyRequests {
			t.Fatalf("booking past burst: HTTP %d, want 429 (%+v)", code, out)
		}
		if out.Status != StatusOverloaded || out.Reason != "overloaded_shard" {
			t.Fatalf("shed response = %+v, want overloaded/overloaded_shard", out)
		}
		if out.Reservation != nil {
			t.Fatalf("shed booking got a reservation: %+v", out.Reservation)
		}
	}
}
