#!/usr/bin/env bash
# scenario_smoke.sh — end-to-end scenario-engine smoke, the CI gate for
# the record/replay pipeline:
#   1. spacestat spec validates the checked-in example specs (schema
#      gate),
#   2. spacebench run -spec -record runs the smoke scenario and records every
#      admitted request into a trace,
#   3. spacebench run -replay plays the recording back through the engine with
#      its own trace attached,
#   4. the two traces must be byte-identical (same decisions, prices,
#      rejection reasons — the determinism contract of the PR), and
#      spacestat trace must summarise the recording,
#   5. spacestat spec -servers runs the Erlang-B analytical twin on the
#      single-bottleneck spec and must report PASS within tolerance.
#
# Usage: scripts/scenario_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT

go build -o "$WORK/spacestat" ./cmd/spacestat
go build -o "$WORK/spacebench" ./cmd/spacebench

echo "scenario_smoke: validating example specs"
"$WORK/spacestat" spec specs/smoke.json specs/erlangb.json specs/bench.json

echo "scenario_smoke: recording spec-driven run"
RECORDED="$WORK/recorded.jsonl"
"$WORK/spacebench" run -scale small -seed 101 -spec specs/smoke.json \
  -record -trace "$RECORDED" >"$WORK/record.out"
grep -q '^scenario *smoke (spec)$' "$WORK/record.out" || \
  { cat "$WORK/record.out" >&2; echo "scenario_smoke: record run did not report the spec name" >&2; exit 1; }
grep -q '"kind":"request"' "$RECORDED" || \
  { echo "scenario_smoke: recorded trace holds no request records" >&2; exit 1; }

echo "scenario_smoke: replaying the recording"
REPLAYED="$WORK/replayed.jsonl"
"$WORK/spacebench" run -scale small -seed 101 -replay "$RECORDED" \
  -record -trace "$REPLAYED" >"$WORK/replay.out"
grep -q '^scenario *smoke (replayed spec)$' "$WORK/replay.out" || \
  { cat "$WORK/replay.out" >&2; echo "scenario_smoke: replay run did not echo the recorded spec name" >&2; exit 1; }

if ! cmp -s "$RECORDED" "$REPLAYED"; then
  diff <(head -5 "$RECORDED") <(head -5 "$REPLAYED") >&2 || true
  echo "scenario_smoke: replay trace is not byte-identical to the recording" >&2
  exit 1
fi
echo "scenario_smoke: replay is byte-identical ($(wc -c <"$RECORDED") bytes)"

# The record and replay runs must also print identical result blocks
# (welfare, revenue, rejection breakdown) apart from the scenario mode
# line and wall-clock footer.
strip() { grep -v -e '^scenario' -e '^events' -e '^completed in' "$1"; }
if ! diff <(strip "$WORK/record.out") <(strip "$WORK/replay.out") >&2; then
  echo "scenario_smoke: replay printed a different result" >&2
  exit 1
fi

echo "scenario_smoke: summarising the recording"
"$WORK/spacestat" trace "$RECORDED" | tee "$WORK/trace.out"
grep -q '^requests: [1-9][0-9]* total' "$WORK/trace.out" || \
  { echo "scenario_smoke: spacestat trace found no decisions in the recording" >&2; exit 1; }

echo "scenario_smoke: Erlang-B analytical twin"
"$WORK/spacestat" spec -servers 12 specs/erlangb.json

echo "scenario_smoke: OK"
