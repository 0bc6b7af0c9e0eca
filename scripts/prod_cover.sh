#!/usr/bin/env bash
# prod_cover.sh — production-coverage tour: which non-test functions does
# no production run execute?
#
# Builds the five commands and the benchmark binary (benchmark/'s own
# module) with `go build -cover`, instrumenting every package of the main
# module, into a temp dir. Runs a fixed small-scale tour, each binary
# writing its counters to its own GOCOVERDIR:
#   * spacebench run (recording a trace and a report), then -replay of
#     that trace, every figure (`all`, with its CSV exports), and the
#     scenario figure on specs/smoke.json;
#   * spacestat trace, diff and spec on what those wrote;
#   * constellation with an SVG map;
#   * a spaced session with an audit log and a -report, driven by
#     spaceload in closed-loop, open-loop and spec-driven mode, with one
#     booking from a site no pair names (the lazy visibility path), a curl
#     of every read-only route and one `spacestat top -once` frame,
#     drained by SIGTERM;
#   * the benchmark's -smoke pass (every workload shape, timed and traced).
# Then merges the counters and prints every function no run executed,
# as `file:line: function`, and the count.
#
# Not a gate: exact fallbacks and test oracles belong on the list
# (EXPERIMENTS.md names them). Nothing is written inside the repository.
#
# Usage: scripts/prod_cover.sh   (about 25 s with a warm build cache)
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/lib_spaced.sh # WORK, SPACED_PID, cleanup on exit, wait_listening

# mainpkgs DIR: the main module's packages the binary in DIR links.
mainpkgs() {
  go list -C "$1" -deps . | grep -E '^spacebooking(/|$)' | grep -v '^spacebooking/benchmark' | paste -sd, -
}
BIN="$WORK/bin"
mkdir -p "$BIN" "$WORK/tmp"
for cmd in constellation spacebench spaced spaceload spacestat; do
  go build -cover -coverpkg="$(mainpkgs "cmd/$cmd")" -o "$BIN/$cmd" "./cmd/$cmd"
done
GOFLAGS=-mod=mod go build -C benchmark -cover -coverpkg="$(GOFLAGS=-mod=mod mainpkgs benchmark)" -o "$BIN/spaceperf" .

# cover NAME CMD...: run CMD with its counters in $WORK/cov/NAME.
cover() {
  local name="$1"
  shift
  mkdir -p "$WORK/cov/$name"
  GOCOVERDIR="$WORK/cov/$name" TMPDIR="$WORK/tmp" "$@"
}

echo "prod_cover: batch tour" >&2
cover run "$BIN/spacebench" run -scale small -trace "$WORK/run.jsonl" -report "$WORK/run.json" >/dev/null
cover replay "$BIN/spacebench" run -scale small -replay "$WORK/run.jsonl" >/dev/null
cover figures "$BIN/spacebench" -scale small -quiet -csv "$WORK/csv" all >/dev/null
cover scenario "$BIN/spacebench" -scale small -quiet -spec specs/smoke.json scenario >/dev/null
cover trace "$BIN/spacestat" trace "$WORK/run.jsonl" >/dev/null
cover diff "$BIN/spacestat" diff "$WORK/run.json" "$WORK/run.json" >/dev/null
cover spec "$BIN/spacestat" spec -servers 12 specs/erlangb.json >/dev/null
cover constellation "$BIN/constellation" -scale small -svg "$WORK/lsn.svg" >/dev/null

echo "prod_cover: serving tour" >&2
LOG="$WORK/spaced.log"
mkdir -p "$WORK/cov/spaced"
GOCOVERDIR="$WORK/cov/spaced" "$BIN/spaced" -addr 127.0.0.1:0 -clock-rate 4 \
  -trace-sample 0.5 -audit-log "$WORK/audit.jsonl" -report "$WORK/spaced.json" >"$LOG" 2>&1 &
SPACED_PID=$!
URL="http://$(wait_listening "$LOG" spaced)"
cover spaceload "$BIN/spaceload" -addr "$URL" -mode closed -concurrency 2 -duration 2s >/dev/null
cover spaceload-open "$BIN/spaceload" -addr "$URL" -mode open -rate 50 -duration 2s >/dev/null
cover spaceload-spec "$BIN/spaceload" -addr "$URL" -spec specs/smoke.json -duration 2s >/dev/null
# One booking from the lowest-numbered small-scale site (of 60) that no
# pair names, to a pair endpoint: only pair endpoints are frozen.
PAIRED="$(curl -fsS "$URL/v1/config" | grep -o '"index": *[0-9]*' | grep -o '[0-9]*$' | sort -un)"
LONE="$(seq 0 59 | grep -vxF "$PAIRED" | head -n 1)"
DST="$(head -n 1 <<<"$PAIRED")"
BOOKED="$(curl -fsS -X POST "$URL/v1/book" -d "{\"src\":{\"kind\":\"ground\",\"index\":$LONE},\"dst\":{\"kind\":\"ground\",\"index\":$DST},\"rate_mbps\":100,\"request_id\":\"prod-cover-lone\"}")"
ID="$(grep -o '"id": *[0-9]*' <<<"$BOOKED" | grep -o '[0-9]*$')"
for route in /metrics /healthz "/v1/reservations/$ID" /debug/traces.json; do
  curl -fsS -o /dev/null "$URL$route"
done
# The audit record lands in the recent buffer just after the response.
for _ in $(seq 1 50); do
  curl -fsS -o /dev/null "$URL/v1/requests/prod-cover-lone/trace" 2>/dev/null && break
  sleep 0.1
done
cover top "$BIN/spacestat" top -once -addr "$URL" >/dev/null
kill -TERM "$SPACED_PID"
wait "$SPACED_PID"
SPACED_PID=""

echo "prod_cover: benchmark smoke" >&2
cover spaceperf "$BIN/spaceperf" -smoke >/dev/null

DIRS="$(ls -d "$WORK"/cov/* | paste -sd, -)"
go tool covdata textfmt -i="$DIRS" -o "$WORK/cover.out"
go tool cover -func="$WORK/cover.out" |
  awk '$NF == "0.0%" && $1 != "total:" { sub(/^spacebooking\//, "", $1); print $1, $2 }' |
  tee "$WORK/unexecuted.txt"
echo "prod_cover: $(wc -l <"$WORK/unexecuted.txt") functions no run executed" >&2
