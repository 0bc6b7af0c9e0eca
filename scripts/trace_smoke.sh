#!/usr/bin/env bash
# trace_smoke.sh — end-to-end tracing smoke, the CI gate for the audit
# pipeline: boot spaced with tracing on (-trace-sample 1 -audit-log),
# fire a short spaceload burst, then assert
#   * /debug/traces.json answers 200 with records,
#   * the drained audit log is non-empty, valid JSONL (`spacestat trace
#     -min 1` exits 0 — it fails on any truncated or malformed line),
#   * the log replays: `spacebench run -replay` on it, at the daemon's
#     scale, seed and algorithm, accepts as many bookings for the same
#     revenue (`spacestat trace` on both files),
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
go build -o "$WORK/spacebench" ./cmd/spacebench

LOG="$WORK/spaced.log"
AUDIT="$WORK/audit.jsonl"
REPORT="$WORK/spaced-report.json"
"$WORK/spaced" -addr 127.0.0.1:0 -clock-rate 4 -queue-depth 64 \
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

# The drained audit log must be non-empty valid JSONL; spacestat trace
# fails on any malformed line and prints the outcome and phase tables on
# success.
"$WORK/spacestat" trace -min 1 "$AUDIT" | tee "$WORK/audit.out"

# Replay the log through the batch engine (spaced's defaults: small
# scale, CEAR, workload seed 101): the decisions that reached the engine
# must come out the same, so the accepted count and revenue match.
REPLAYED="$WORK/replayed.jsonl"
"$WORK/spacebench" run -scale small -seed 101 -replay "$AUDIT" -trace "$REPLAYED" >"$WORK/replay.out"
"$WORK/spacestat" trace "$REPLAYED" >"$WORK/replayed.out"
accepted() { sed -n 's/^requests: [0-9]* total, \([0-9]*\) accepted .*/\1/p' "$1"; }
revenue() { grep '^revenue:' "$1"; }
if [[ -z "$(accepted "$WORK/audit.out")" || "$(accepted "$WORK/audit.out")" != "$(accepted "$WORK/replayed.out")" ||
  "$(revenue "$WORK/audit.out")" != "$(revenue "$WORK/replayed.out")" ]]; then
  cat "$WORK/replayed.out" >&2
  echo "trace_smoke: the replayed log accepts or earns differently from the daemon" >&2
  exit 1
fi
echo "trace_smoke: audit log replays ($(accepted "$WORK/audit.out") accepted, $(revenue "$WORK/audit.out"))"

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
