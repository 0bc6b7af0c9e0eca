package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleLog = `{"id":1,"ts_unix_ns":1,"outcome":"accepted","arrival_slot":0,"start_slot":0,"end_slot":0,"searches":1,"pruned_labels":0,"heap_pops":3,"deficit_walks":1,"total_ns":1000,"sampled":false}
{"id":2,"ts_unix_ns":2,"outcome":"rejected","reason":"priced-out","arrival_slot":0,"start_slot":0,"end_slot":0,"searches":1,"pruned_labels":0,"heap_pops":3,"deficit_walks":1,"total_ns":2000,"sampled":true,"phases":[{"name":"queue.wait","start_ns":0,"end_ns":500}]}
{"id":3,"ts_unix_ns":3,"outcome":"accepted","shard":1,"cross_shard":true,"arrival_slot":1,"start_slot":1,"end_slot":1,"searches":1,"pruned_labels":0,"heap_pops":3,"deficit_walks":1,"total_ns":1500,"sampled":false}
`

// TestSummarize checks the counts and the human layout; the third record
// carries the shard fields logs written before the single-engine daemon
// may hold, which must parse and be ignored.
func TestSummarize(t *testing.T) {
	code, out, errOut := runStat(t, []string{"audit", "-"}, sampleLog)
	if code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, errOut)
	}
	want := `stdin: 3 records, 1 sampled
  accepted     2
  rejected     1
phases (over sampled records):
  phase               mean_ms     max_ms    spans
  queue.wait            0.001      0.001        1
`
	if out != want {
		t.Fatalf("human output:\n%s\nwant:\n%s", out, want)
	}
}

func TestSummarizeRejectsBadRecords(t *testing.T) {
	for in, want := range map[string]string{
		"{\"id\":1}\n":                   "line 1: record without outcome",
		"not json\n":                     "line 1: invalid character",
		sampleLog + "{\"outcome\":\"acc": "line 4:",
	} {
		code, out, errOut := runStat(t, []string{"audit", "-"}, in)
		if code != 1 || out != "" || !strings.Contains(errOut, want) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 1 and %q", in, code, out, errOut, want)
		}
	}
}

// TestAuditMinAndJSON pins -min's exit code and -json's content.
func TestAuditMinAndJSON(t *testing.T) {
	code, out, errOut := runStat(t, []string{"audit", "-min", "4", "-"}, sampleLog)
	if code != 1 || out != "" || !strings.Contains(errOut, "stdin: 3 records, need at least 4") {
		t.Errorf("-min 4: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	if code, _, errOut := runStat(t, []string{"audit", "-"}, ""); code != 1 || !strings.Contains(errOut, "0 records") {
		t.Errorf("empty log under the default -min 1: exit %d, stderr %q", code, errOut)
	}
	if code, _, _ := runStat(t, []string{"audit", "-min", "0", "-"}, ""); code != 0 {
		t.Errorf("empty log under -min 0: exit %d, want 0", code)
	}

	code, out, errOut = runStat(t, []string{"audit", "-json", "-"}, sampleLog)
	if code != 0 {
		t.Fatalf("-json: exit %d, stderr %q", code, errOut)
	}
	var sum auditSummary
	if err := json.Unmarshal([]byte(out), &sum); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out)
	}
	if sum.Source != "stdin" || sum.Records != 3 || sum.Sampled != 1 || sum.Outcomes["accepted"] != 2 ||
		len(sum.Phases) != 1 || sum.Phases[0] != (phaseSummary{Name: "queue.wait", MeanMs: 0.0005, MaxMs: 0.0005, Spans: 1}) {
		t.Errorf("-json summary = %+v", sum)
	}
}
