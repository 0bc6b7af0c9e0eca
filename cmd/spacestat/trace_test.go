package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spacebooking/internal/trace"
)

const goodTrace = `{"kind":"run_info","algorithm":"CEAR","scale":"small","rate":0.5,"seed":7}
{"kind":"decision","request_id":1,"accepted":true,"price":3.5,"total_hops":4}
{"kind":"decision","request_id":2,"accepted":false,"reason":"no-path"}
{"kind":"snapshot","slot":1,"depleted":2,"congested":1}
`

func TestSummarizesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(goodTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runStat(t, []string{"trace", path}, "")
	if code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, errOut)
	}
	for _, want := range []string{
		"run: CEAR", "2 total, 1 accepted", "no-path", "price quantiles", "depleted satellites",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestReadsStdinWithDash(t *testing.T) {
	code, out, errOut := runStat(t, []string{"trace", "-"}, goodTrace)
	if code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "2 total, 1 accepted") {
		t.Errorf("stdin trace not summarised:\n%s", out)
	}
}

// A malformed line mid-stream must surface the parse error — input name
// and line number — rather than the usage string.
func TestMidStreamParseErrorIsReported(t *testing.T) {
	bad := goodTrace + "{not json\n"
	code, _, errOut := runStat(t, []string{"trace", "-"}, bad)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if strings.Contains(errOut, "usage:") {
		t.Errorf("parse failure printed usage instead of the error: %q", errOut)
	}
	for _, want := range []string{"spacestat trace: stdin:", "line 5"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr missing %q: %q", want, errOut)
		}
	}
}

func TestEmptyTraceAndUsage(t *testing.T) {
	if code, out, _ := runStat(t, []string{"trace", "-"}, ""); code != 0 || !strings.Contains(out, "empty trace") {
		t.Errorf("empty stdin: exit %d, out %q", code, out)
	}
	if code, _, errOut := runStat(t, []string{"trace"}, ""); code != 2 || !strings.Contains(errOut, "usage:") {
		t.Errorf("no args: exit %d, stderr %q", code, errOut)
	}
	if code, _, _ := runStat(t, []string{"trace", "does-not-exist.jsonl"}, ""); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}

// sampleLog is a spaced audit log: an accepted and a priced-out decision
// with their commit seqs, and a shed booking the engine never saw.
const sampleLog = `{"kind":"decision","request_id":1,"rate_mbps":500,"valuation":100,"accepted":true,"price":2.5,"total_hops":3,"src_kind":"ground","dst_kind":"ground","dst_index":1,"seq":1,"ts_unix_ns":1,"outcome":"accepted","searches":1,"heap_pops":3,"total_ns":1000}
{"kind":"decision","request_id":2,"rate_mbps":500,"valuation":100,"accepted":false,"price":120,"reason":"priced-out","src_kind":"ground","dst_kind":"ground","dst_index":1,"seq":2,"ts_unix_ns":2,"outcome":"rejected","searches":1,"total_ns":2000,"sampled":true,"phases":[{"name":"queue.wait","start_ns":0,"end_ns":500000}]}
{"kind":"decision","request_id":3,"rate_mbps":500,"valuation":100,"accepted":false,"src_kind":"ground","dst_kind":"ground","dst_index":1,"ts_unix_ns":3,"outcome":"overloaded","total_ns":1500,"sampled":true,"phases":[{"name":"ingress.parse","start_ns":0,"end_ns":200000},{"name":"queue.wait","start_ns":200000,"end_ns":300000}]}
`

// TestSummarize checks the human layout on an audit log: the decision
// summary a batch trace gets, then the outcome counts and the phase
// table, with the shed booking counted under its outcome.
func TestSummarize(t *testing.T) {
	code, out, errOut := runStat(t, []string{"trace", "-"}, sampleLog)
	if code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, errOut)
	}
	want := `requests: 3 total, 1 accepted (33.3%), 2 rejected
revenue:  2.5
rejections by reason:
  overloaded                                         1
  priced-out                                         1
accepted price quantiles: p25 2.5  p50 2.5  p90 2.5  max 2.5
mean plan hops: 3
outcomes (2 of 3 sampled):
  accepted     1
  overloaded   1
  rejected     1
phases (over sampled decisions):
  phase               mean_ms     max_ms    spans
  queue.wait            0.300      0.500        2
  ingress.parse         0.200      0.200        1
`
	if out != want {
		t.Fatalf("human output:\n%s\nwant:\n%s", out, want)
	}
}

// TestSummarizeRejectsBadRecords: a line of no known kind — such as an
// audit line from before the one decision record — fails by line number.
func TestSummarizeRejectsBadRecords(t *testing.T) {
	for in, want := range map[string]string{
		"{\"id\":1,\"outcome\":\"accepted\"}\n":    `line 1: unknown record kind ""`,
		"not json\n":                               "line 1: invalid character",
		sampleLog + "{\"kind\":\"decision\",\"acc": "line 4:",
	} {
		code, out, errOut := runStat(t, []string{"trace", "-"}, in)
		if code != 1 || out != "" || !strings.Contains(errOut, want) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 1 and %q", in, code, out, errOut, want)
		}
	}
}

// TestAuditMinAndJSON pins -min's exit code and -json's content.
func TestAuditMinAndJSON(t *testing.T) {
	code, out, errOut := runStat(t, []string{"trace", "-min", "4", "-"}, sampleLog)
	if code != 1 || out != "" || !strings.Contains(errOut, "stdin: 3 decisions, need at least 4") {
		t.Errorf("-min 4: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	if code, _, errOut := runStat(t, []string{"trace", "-min", "1", "-"}, ""); code != 1 || !strings.Contains(errOut, "0 decisions") {
		t.Errorf("empty log under -min 1: exit %d, stderr %q", code, errOut)
	}

	code, out, errOut = runStat(t, []string{"trace", "-json", "-"}, sampleLog)
	if code != 0 {
		t.Fatalf("-json: exit %d, stderr %q", code, errOut)
	}
	var sum struct {
		Source string `json:"source"`
		trace.Summary
	}
	if err := json.Unmarshal([]byte(out), &sum); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out)
	}
	if sum.Source != "stdin" || sum.Total != 3 || sum.Accepted != 1 || sum.Revenue != 2.5 || sum.Sampled != 2 ||
		sum.Outcomes["overloaded"] != 1 || sum.ByReason["priced-out"] != 1 || len(sum.Phases) != 2 ||
		sum.Phases[0] != (trace.PhaseStat{Name: "queue.wait", MeanMs: 0.3, MaxMs: 0.5, Spans: 2}) {
		t.Errorf("-json summary = %+v", sum)
	}
}
