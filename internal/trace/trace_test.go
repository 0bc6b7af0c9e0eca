package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Record{Kind: KindRunInfo, Algorithm: "CEAR", Scale: "small", Rate: 2, Seed: 101})
	w.Emit(Record{Kind: KindDecision, RequestID: 1, Arrival: 5, Start: 5, End: 9,
		RateMbps: 1250, Valuation: 1e8, Accepted: true, Price: 42.5, TotalHops: 12})
	w.Emit(Record{Kind: KindDecision, RequestID: 2, Accepted: false, Reason: "no feasible path at slot 6"})
	w.Emit(Record{Kind: KindSnapshot, Slot: 10, Depleted: 3, Congested: 1})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	records, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 {
		t.Fatalf("records = %d", len(records))
	}
	if records[0].Kind != KindRunInfo || records[0].Algorithm != "CEAR" {
		t.Errorf("run info = %+v", records[0])
	}
	if records[1].Price != 42.5 || !records[1].Accepted || records[1].TotalHops != 12 {
		t.Errorf("decision = %+v", records[1])
	}
	if records[2].Accepted || records[2].Reason == "" {
		t.Errorf("rejection = %+v", records[2])
	}
	if records[3].Depleted != 3 {
		t.Errorf("snapshot = %+v", records[3])
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json}\n")); err == nil {
		t.Error("bad JSON should error")
	}
	records, err := Read(strings.NewReader("\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Errorf("blank lines produced %d records", len(records))
	}
}

// eachLineFixture is TestEachLine's stream: records 1 to 3 around an
// empty line and a whitespace-only one.
const eachLineFixture = "{\"N\":1}\n\n{\"N\":2}\n \t\r\n{\"N\":3}\n"

// TestEachLine pins the streaming reader's contract: blank lines — empty
// or whitespace-only — are skipped, the callback's error stops the walk,
// and every error names its line — including a line over the 1 MiB cap.
func TestEachLine(t *testing.T) {
	type rec struct{ N int }
	var got []int
	stop := errors.New("stop")
	err := EachLine(strings.NewReader(eachLineFixture), func(r rec) error {
		got = append(got, r.N)
		if r.N == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || !strings.Contains(err.Error(), "line 3") || !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("err = %v, got %v; want stop at line 3 after [1 2]", err, got)
	}
	got = got[:0]
	if err := EachLine(strings.NewReader(eachLineFixture), func(r rec) error { got = append(got, r.N); return nil }); err != nil ||
		!reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("err = %v, got %v; want [1 2 3] with the blank lines skipped", err, got)
	}
	long := "{\"N\":1}\n" + strings.Repeat(" ", 1<<20) + "\n"
	err = EachLine(strings.NewReader(long), func(rec) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("over-long line: err = %v, want a line 2 error", err)
	}
}

// FuzzEachLine: EachLine never panics, and when it succeeds it has called
// fn once per non-blank line. Seeded from this file's fixtures.
func FuzzEachLine(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Record{Kind: KindRunInfo, Algorithm: "CEAR", Scale: "small", Rate: 2, Seed: 101})
	w.Emit(Record{Kind: KindDecision, RequestID: 2, Accepted: false, Reason: "no feasible path at slot 6"})
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{eachLineFixture, buf.String(), "\n\n", "{not json}\n", "{\"N\":1}\r\n\r\n[2]", "  \n\t{}"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var nonBlank []string
		for _, line := range strings.Split(string(data), "\n") {
			if !isBlank([]byte(line)) {
				nonBlank = append(nonBlank, line)
			}
		}
		calls := 0
		err := EachLine(bytes.NewReader(data), func(json.RawMessage) error { calls++; return nil })
		if err == nil && calls != len(nonBlank) {
			t.Fatalf("fn ran %d times for %d non-blank lines %q", calls, len(nonBlank), nonBlank)
		}
		_ = EachLine(bytes.NewReader(data), func(Record) error { return nil })
	})
}

func TestWriterErrorSticks(t *testing.T) {
	w := NewWriter(failWriter{})
	var first error
	for i := 0; i < 200; i++ {
		err := w.Emit(Record{Kind: KindDecision, RequestID: i})
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		} else if err != first {
			t.Fatalf("later Emit returned a different error: %v vs %v", err, first)
		}
	}
	if first == nil {
		t.Fatal("Emit never surfaced the write error")
	}
	if err := w.Err(); err != first {
		t.Errorf("Err() = %v, want the sticky %v", err, first)
	}
	if err := w.Flush(); err != first {
		t.Errorf("Flush() = %v, want the sticky %v", err, first)
	}
	if err := w.Close(); err != first {
		t.Errorf("Close() = %v, want the sticky %v", err, first)
	}
}

func TestWriterEmitSurfacesBufferedError(t *testing.T) {
	// A small record fits bufio's buffer, so the first Emits succeed; the
	// error must still surface from a later Emit or at the latest Close —
	// a caller checking only Close sees the mid-run failure.
	w := NewWriter(failWriter{})
	w.Emit(Record{Kind: KindSnapshot, Slot: 1})
	if err := w.Close(); err == nil {
		t.Error("Close swallowed the write error")
	}
}

func TestWriterCloseClosesUnderlying(t *testing.T) {
	var buf bytes.Buffer
	cw := &closeWriter{w: &buf}
	w := NewWriter(cw)
	if err := w.Emit(Record{Kind: KindSnapshot, Slot: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !cw.closed {
		t.Error("Close did not close the underlying writer")
	}
	records, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Slot != 3 {
		t.Errorf("records after Close = %+v", records)
	}
}

func TestWriterCloseReturnsCloseError(t *testing.T) {
	w := NewWriter(&closeWriter{w: &bytes.Buffer{}, closeErr: errors.New("fsync lost")})
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "fsync lost") {
		t.Errorf("Close() = %v, want the underlying close error", err)
	}
}

// TestWriterShortWrite pins the short-write path: an underlying writer
// that accepts only part of each buffer (a filling disk, a throttled
// pipe) must surface io.ErrShortWrite through the usual sticky-error
// contract rather than silently dropping the tail of the trace.
func TestWriterShortWrite(t *testing.T) {
	w := NewWriter(shortWriter{})
	var err error
	for i := 0; i < 5000 && err == nil; i++ {
		err = w.Emit(Record{Kind: KindRequest, RequestID: i, Class: "web"})
	}
	if err == nil {
		err = w.Flush()
	}
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write surfaced as %v, want io.ErrShortWrite", err)
	}
	if got := w.Err(); !errors.Is(got, io.ErrShortWrite) {
		t.Errorf("Err() = %v, want the sticky short-write error", got)
	}
	if got := w.Close(); got != w.Err() {
		t.Errorf("Close() = %v, want the sticky %v", got, w.Err())
	}
}

// TestWriterCloseAfterErrorStillClosesUnderlying: once a write error is
// sticky, Close must still close the underlying file — returning the
// original error, not leaking the descriptor.
func TestWriterCloseAfterErrorStillClosesUnderlying(t *testing.T) {
	cw := &closeWriter{w: failWriter{}}
	w := NewWriter(cw)
	w.Emit(Record{Kind: KindSnapshot, Slot: 1})
	err := w.Close()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close() = %v, want the underlying write error", err)
	}
	if !cw.closed {
		t.Error("Close left the underlying writer open after a write error")
	}
	if w.Err() != err {
		t.Errorf("Err() = %v, want the error Close returned", w.Err())
	}
}

// TestRequestRecordRoundTrip pins the KindRequest wire format the replay
// path depends on: endpoints, class, spec name and the float demand
// fields must all survive a JSONL round trip exactly (Go's shortest-
// representation float marshaling makes this lossless).
func TestRequestRecordRoundTrip(t *testing.T) {
	in := []Record{
		{Kind: KindRunInfo, Algorithm: "CEAR", Scale: "small", Rate: 2, Seed: 101, Spec: "flash-crowd"},
		{Kind: KindRequest, RequestID: 1, Arrival: 3, Start: 4, End: 9,
			RateMbps: 1250.0625, Valuation: 2.3e9,
			SrcKind: "ground", SrcIndex: 2, DstKind: "space", DstIndex: 17, Class: "eo"},
		{Kind: KindRequest, RequestID: 2, RateMbps: 0.1, SrcKind: "ground", DstKind: "ground", DstIndex: 1},
		{Kind: KindDecision, RequestID: 1, Accepted: true, Price: 12.5},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range in {
		if err := w.Emit(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip diverged:\nin:  %+v\nout: %+v", in, out)
	}
	s := Summarize(out)
	if s.Requests != 2 {
		t.Errorf("Summarize counted %d request records, want 2", s.Requests)
	}
	if s.Total != 1 || s.Accepted != 1 {
		t.Errorf("request records leaked into decision counts: %+v", s)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// shortWriter accepts half of every non-trivial write and reports no
// error, which bufio must turn into io.ErrShortWrite.
type shortWriter struct{}

func (shortWriter) Write(p []byte) (int, error) {
	if len(p) < 2 {
		return len(p), nil
	}
	return len(p) / 2, nil
}

type closeWriter struct {
	w        io.Writer
	closed   bool
	closeErr error
}

func (c *closeWriter) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c *closeWriter) Close() error                { c.closed = true; return c.closeErr }

func TestSummarize(t *testing.T) {
	records := []Record{
		{Kind: KindRunInfo},
		{Kind: KindDecision, Accepted: true, Price: 10},
		{Kind: KindDecision, Accepted: true, Price: 5},
		{Kind: KindDecision, Accepted: false, Reason: "no-path"},
		{Kind: KindDecision, Accepted: false, Reason: "no-path"},
		{Kind: KindDecision, Accepted: false, Reason: "priced-out"},
		{Kind: KindSnapshot, Slot: 1},
	}
	s := Summarize(records)
	if s.Total != 5 || s.Accepted != 2 || s.Rejected != 3 {
		t.Errorf("summary counts = %+v", s)
	}
	if s.Revenue != 15 {
		t.Errorf("revenue = %v", s.Revenue)
	}
	if s.ByReason["no-path"] != 2 || s.ByReason["priced-out"] != 1 {
		t.Errorf("by reason = %v", s.ByReason)
	}
	if s.Snapshots != 1 {
		t.Errorf("snapshots = %d", s.Snapshots)
	}
}
