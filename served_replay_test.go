package spacebooking

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spacebooking/internal/scenario"
	"spacebooking/internal/server"
	"spacebooking/internal/sim"
	"spacebooking/internal/topology"
	"spacebooking/internal/trace"
	"spacebooking/internal/workload"
)

// TestServedAuditLogReplays is the gate of the one decision record: eight
// concurrent clients book a small-scale workload against an
// arrival-driven daemon, which writes an audit log. Replayed through scenario.RequestsFromTrace and sim.Run, the
// drained log must give every request id the same accepted flag, reason,
// hops and price bits as the daemon did, and the replay's Result must
// equal the daemon's. The log lists request ids in the order handlers
// finished, which is often but not always commit order; the test replays
// it back to front, so the case a replay in file order would get wrong is
// exercised on every seed.
func TestServedAuditLogReplays(t *testing.T) {
	env := smallEnv(t)
	for seed := int64(1); seed <= 3; seed++ {
		rc, err := env.RunConfig(sim.AlgCEAR, env.WorkloadConfig(3, seed))
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.Generate(rc.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) < 200 {
			t.Fatalf("seed %d: %d bookings, want at least 200", seed, len(reqs))
		}
		records, served := serveConcurrently(t, env.Provider, rc, reqs)
		t.Logf("seed %d: %d bookings, log in commit order: %v", seed, len(reqs), slices.IsSorted(decidedSeqs(records)))
		slices.Reverse(records)

		replayReqs, _, err := scenario.RequestsFromTrace(records)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var buf bytes.Buffer
		replayRC := rc
		replayRC.Trace = trace.NewWriter(&buf)
		replayRC.Source = workload.NewSliceSource(replayReqs)
		replayed, err := sim.Run(env.Provider, replayRC)
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if !reflect.DeepEqual(served, replayed) {
			t.Fatalf("seed %d: replayed Result diverges from the daemon's:\nserved:   %+v\nreplayed: %+v", seed, served, replayed)
		}
		replayRecords, err := trace.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		byID := map[int]trace.Record{}
		for _, r := range replayRecords {
			if r.Kind == trace.KindDecision {
				byID[r.RequestID] = r
			}
		}
		// The replayed log runs back to front; seq is the order the engine
		// committed the requests in.
		if seqs := decidedSeqs(records); len(seqs) < 2 || slices.IsSorted(seqs) {
			t.Fatalf("seed %d: the replayed log is in commit order (%d decided records)", seed, len(seqs))
		}
		for _, r := range records {
			if r.Seq == 0 {
				continue
			}
			want, ok := byID[r.RequestID]
			if !ok || want.Accepted != r.Accepted || want.Reason != r.Reason || want.TotalHops != r.TotalHops ||
				math.Float64bits(want.Price) != math.Float64bits(r.Price) {
				t.Fatalf("seed %d: request %d served %+v, replayed %+v", seed, r.RequestID, r, want)
			}
		}
		if len(byID) != len(replayReqs) {
			t.Fatalf("seed %d: replay decided %d request ids for %d requests", seed, len(byID), len(replayReqs))
		}
	}
}

// decidedSeqs lists the commit index of every record that has one, in
// file order.
func decidedSeqs(records []trace.Record) []int {
	var seqs []int
	for _, r := range records {
		if r.Seq > 0 {
			seqs = append(seqs, r.Seq)
		}
	}
	return seqs
}

// serveConcurrently books reqs, slots pinned, from eight concurrent
// clients against an arrival-driven server with an audit log, drains it,
// and returns the log and the server's Result.
func serveConcurrently(t *testing.T, prov *topology.Provider, rc sim.RunConfig, reqs []workload.Request) ([]trace.Record, *sim.Result) {
	t.Helper()
	auditPath := filepath.Join(t.TempDir(), "audit.jsonl")
	srv, err := server.New(server.Config{Provider: prov, Run: rc,
		Trace: server.TraceConfig{AuditPath: auditPath}})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	srv.Register(mux)
	hs := httptest.NewServer(mux)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				if err := book(hs.URL, reqs[i]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	hs.Close()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st := srv.StatsSnapshot(); st.Trace == nil || st.Trace.Dropped != 0 {
		t.Fatalf("audit pipeline: %+v, want 0 dropped", st.Trace)
	}
	res, err := srv.Result()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(reqs) {
		t.Fatalf("audit log holds %d records for %d bookings", len(records), len(reqs))
	}
	return records, res
}

// book posts one request with its slots pinned and wants a decision.
func book(url string, r workload.Request) error {
	ref := func(e topology.Endpoint) server.EndpointRef {
		return server.EndpointRef{Kind: e.Kind.Name(), Index: e.Index}
	}
	body, err := json.Marshal(server.BookRequest{
		Src: ref(r.Src), Dst: ref(r.Dst), RateMbps: r.RateMbps, Valuation: r.Valuation,
		ArrivalSlot: &r.ArrivalSlot, StartSlot: &r.StartSlot, EndSlot: &r.EndSlot,
	})
	if err != nil {
		return err
	}
	resp, err := http.Post(url+"/v1/book", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("booking %d: HTTP %d", r.ID, resp.StatusCode)
	}
	return nil
}
