#!/usr/bin/env bash
# trace_smoke.sh — end-to-end tracing smoke, the CI gate for the audit
# pipeline: boot spaced with tracing on (-trace-sample 1 -audit-log),
# fire a short spaceload burst, then assert
#   * /debug/traces.json answers 200 with records,
#   * the drained audit log is non-empty, valid JSONL (`spacestat audit`
#     exits 0 — it fails on any truncated or malformed line),
#   * the shutdown report's server.trace.* counters are live, gated
#     through `spacestat diff` against the report itself.
#
# Usage: scripts/trace_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/lib_spaced.sh # WORK, SPACED_PID, cleanup on exit, wait_listening

go build -o "$WORK/spaced" ./cmd/spaced
go build -o "$WORK/spaceload" ./cmd/spaceload
go build -o "$WORK/spacestat" ./cmd/spacestat

LOG="$WORK/spaced.log"
AUDIT="$WORK/audit.jsonl"
REPORT="$WORK/spaced-report.json"
"$WORK/spaced" -addr 127.0.0.1:0 -clock-rate 4 -queue-depth 64 -batch-size 8 \
  -trace-sample 1 -audit-log "$AUDIT" -report "$REPORT" >"$LOG" 2>&1 &
SPACED_PID=$!

ADDR="$(wait_listening "$LOG" spaced)"
echo "trace_smoke: daemon up on $ADDR (tracing at sample rate 1)"

SUMMARY="$("$WORK/spaceload" -addr "http://$ADDR" -mode closed -concurrency 4 -duration 3s \
  | tee /dev/stderr | sed -n 's/^SUMMARY //p')"
[[ -n "$SUMMARY" ]] || { echo "trace_smoke: spaceload printed no SUMMARY line" >&2; exit 1; }

# The recent-traces endpoint must answer 200 with at least one record.
TRACES="$WORK/traces.json"
CODE="$(curl -s -o "$TRACES" -w '%{http_code}' "http://$ADDR/debug/traces.json")"
[[ "$CODE" == "200" ]] || { echo "trace_smoke: /debug/traces.json answered HTTP $CODE" >&2; exit 1; }
grep -Eq '"count": *[1-9]' "$TRACES" || { echo "trace_smoke: /debug/traces.json holds no records" >&2; exit 1; }

kill -TERM "$SPACED_PID"
wait "$SPACED_PID"
SPACED_PID=""

# The drained audit log must be non-empty valid JSONL; spacestat audit
# fails on any malformed line and prints the phase table on success.
"$WORK/spacestat" audit -min 1 "$AUDIT"

# Gate the report's trace counters through spacestat diff: a
# self-compare must exit 0, and the gated server.trace.* keys must exist
# and be live.
"$WORK/spacestat" diff -max-regress '' \
  -gate counters.server.trace.records=0% \
  -gate counters.server.trace.sampled=0% \
  -gate counters.server.trace.dropped=0% \
  "$REPORT" "$REPORT" >/dev/null
grep -Eq '"server.trace.records": *[1-9]' "$REPORT" || \
  { echo "trace_smoke: server.trace.records is zero or missing from the run report" >&2; exit 1; }
grep -Eq '"server.trace.sampled": *[1-9]' "$REPORT" || \
  { echo "trace_smoke: server.trace.sampled is zero or missing at sample rate 1" >&2; exit 1; }
grep -q '"slo"' "$REPORT" || \
  { echo "trace_smoke: slo section missing from the run report" >&2; exit 1; }

echo "trace_smoke: OK"
