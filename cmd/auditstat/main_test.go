package main

import (
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
	sum, err := summarize("test", strings.NewReader(sampleLog))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 3 || sum.Sampled != 1 {
		t.Fatalf("records=%d sampled=%d, want 3/1", sum.Records, sum.Sampled)
	}
	if sum.Outcomes["accepted"] != 2 || sum.Outcomes["rejected"] != 1 {
		t.Fatalf("outcomes = %v", sum.Outcomes)
	}
	var b strings.Builder
	printHuman(&b, sum)
	if out := b.String(); !strings.Contains(out, "test: 3 records, 1 sampled") || strings.Contains(out, "shard") {
		t.Fatalf("unexpected human output:\n%s", out)
	}
}

func TestSummarizeRejectsBadRecords(t *testing.T) {
	if _, err := summarize("test", strings.NewReader("{\"id\":1}\n")); err == nil {
		t.Fatal("record without outcome accepted")
	}
	if _, err := summarize("test", strings.NewReader("not json\n")); err == nil {
		t.Fatal("invalid JSON accepted")
	}
}
