//go:build unix

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"spacebooking/internal/obs"
)

// TestAuditKeepsEveryRecordWhenReaderStalls: an audit log whose reader
// falls behind slows the bookings down but loses none of their records.
// The log is a FIFO whose reader reads nothing until the clients have had
// 300 ms; a log with a gap in seq could not be replayed.
func TestAuditKeepsEveryRecordWhenReaderStalls(t *testing.T) {
	const clients, perClient = 32, 45
	path := filepath.Join(t.TempDir(), "audit.fifo")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	// Non-blocking, so the open returns before the server opens the
	// writing end.
	reader, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	rc := testRunConfig(t, 2, 17)
	rc.Obs = obs.New()
	s, hs := newTestServer(t, Config{Run: rc, QueueDepth: 4096, Trace: TraceConfig{AuditPath: path}})

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	body, err := json.Marshal(BookRequest{Src: EndpointRef{Kind: "ground", Index: 0},
		Dst: EndpointRef{Kind: "ground", Index: 1}, RateMbps: 500})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := client.Post(hs.URL+"/v1/book", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("booking: HTTP %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	booked := make(chan struct{})
	go func() {
		wg.Wait()
		close(booked)
	}()
	select {
	case <-booked:
	case <-time.After(300 * time.Millisecond):
	}

	lines := make(chan int, 1)
	go func() {
		n := 0
		for sc := bufio.NewScanner(reader); sc.Scan(); {
			n++
		}
		lines <- n
	}()
	<-booked
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if n := <-lines; n != clients*perClient {
		t.Errorf("audit log holds %d records, want %d", n, clients*perClient)
	}
	if st := s.StatsSnapshot(); st.Trace == nil || st.Trace.Dropped != 0 {
		t.Errorf("trace stats = %+v, want 0 dropped", st.Trace)
	}
}
