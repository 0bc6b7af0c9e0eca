#!/usr/bin/env bash
# prod_cover.sh — production-coverage tour: which non-test functions does
# no production run execute?
#
# Builds the five commands and the benchmark binary (benchmark/'s own
# module) with `go build -cover`, instrumenting every package of the main
# module, into a temp dir. Runs a fixed small-scale tour, each binary
# writing its counters to its own GOCOVERDIR:
#   * spacebench run (recording a trace and a report), then -replay of
#     that trace, and one figure (fig7: all five algorithms);
#   * spacestat trace, diff and spec on what those wrote;
#   * constellation with an SVG map;
#   * a spaced session with an audit log, driven by spaceload, with one
#     `spacestat top -once` frame, drained by SIGTERM;
#   * the benchmark's -smoke pass (every workload shape, timed and traced).
# Then merges the counters and prints every function no run executed,
# as `file:line: function`, and the count.
#
# Not a gate: exact fallbacks and test oracles belong on the list
# (EXPERIMENTS.md names them). Nothing is written inside the repository.
#
# Usage: scripts/prod_cover.sh   (about 15 s with a warm build cache)
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
cover figure "$BIN/spacebench" -scale small -quiet fig7 >/dev/null
cover trace "$BIN/spacestat" trace "$WORK/run.jsonl" >/dev/null
cover diff "$BIN/spacestat" diff "$WORK/run.json" "$WORK/run.json" >/dev/null
cover spec "$BIN/spacestat" spec -servers 12 specs/erlangb.json >/dev/null
cover constellation "$BIN/constellation" -scale small -svg "$WORK/lsn.svg" >/dev/null

echo "prod_cover: serving tour" >&2
LOG="$WORK/spaced.log"
mkdir -p "$WORK/cov/spaced"
GOCOVERDIR="$WORK/cov/spaced" "$BIN/spaced" -addr 127.0.0.1:0 -clock-rate 4 \
  -trace-sample 1 -audit-log "$WORK/audit.jsonl" >"$LOG" 2>&1 &
SPACED_PID=$!
ADDR="$(wait_listening "$LOG" spaced)"
cover spaceload "$BIN/spaceload" -addr "http://$ADDR" -mode closed -concurrency 2 -duration 2s >/dev/null
cover top "$BIN/spacestat" top -once -addr "http://$ADDR" >/dev/null
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
