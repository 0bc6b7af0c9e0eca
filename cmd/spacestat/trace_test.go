package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
