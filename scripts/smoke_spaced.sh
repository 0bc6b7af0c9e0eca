#!/usr/bin/env bash
# smoke_spaced.sh — end-to-end serving smoke, the CI gate for the
# booking daemon: build spaced and spaceload, start the daemon at small
# scale, fire a short closed-loop burst, assert a non-zero accept count,
# probe the hot-spot telemetry surface (/v1/hotspots,
# /debug/constellation.json, /debug/map.svg), then verify a clean
# SIGTERM drain (daemon exits 0 and logs its drained summary).
#
# A second pass repeats the burst against a two-shard cluster
# (-shards 2): /v1/stats must grow the per-shard section, at least one
# booking must cross the shard boundary (two-phase prepare against both
# shards), the drain must stay graceful, and the run report must carry
# the cluster.* reconciliation counters (the obsdiff gate).
#
# A third pass runs the daemon on the arrival-driven clock
# (-clock-rate 0): spaceload must pin its generated slots so the clock
# follows the stream, i.e. /v1/stats ends past slot 0 and at least one
# accepted reservation starts past slot 0. (Before spaceload sent
# arrival_slot the clock sat at slot 0 and only that slot ever accepted.)
#
# Usage: scripts/smoke_spaced.sh
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/lib_spaced.sh # WORK, SPACED_PID, cleanup on exit, wait_listening

go build -o "$WORK/spaced" ./cmd/spaced
go build -o "$WORK/spaceload" ./cmd/spaceload

LOG="$WORK/spaced.log"
"$WORK/spaced" -addr 127.0.0.1:0 -clock-rate 4 -queue-depth 64 -batch-size 8 >"$LOG" 2>&1 &
SPACED_PID=$!

ADDR="$(wait_listening "$LOG" spaced)"
echo "smoke_spaced: daemon up on $ADDR"

SUMMARY="$("$WORK/spaceload" -addr "http://$ADDR" -mode closed -concurrency 4 -duration 3s \
  | tee /dev/stderr | sed -n 's/^SUMMARY //p')"
[[ -n "$SUMMARY" ]] || { echo "smoke_spaced: spaceload printed no SUMMARY line" >&2; exit 1; }

ACCEPTED="$(sed -n 's/.*accepted=\([0-9]*\).*/\1/p' <<<"$SUMMARY")"
ERRORS="$(sed -n 's/.*errors=\([0-9]*\).*/\1/p' <<<"$SUMMARY")"
[[ "${ACCEPTED:-0}" -gt 0 ]] || { echo "smoke_spaced: zero accepted bookings ($SUMMARY)" >&2; exit 1; }
[[ "${ERRORS:-1}" -eq 0 ]] || { echo "smoke_spaced: client errors during burst ($SUMMARY)" >&2; exit 1; }

# Hot-spot telemetry surface: the JSON endpoints must report tracking
# enabled and the map must be a well-formed SVG document.
HOTSPOTS="$(curl -fsS "http://$ADDR/v1/hotspots")"
grep -q '"enabled": *true' <<<"$HOTSPOTS" || { echo "smoke_spaced: /v1/hotspots not enabled: $HOTSPOTS" >&2; exit 1; }
grep -q '"links"' <<<"$HOTSPOTS" || { echo "smoke_spaced: /v1/hotspots missing links tracker" >&2; exit 1; }

CONSTELLATION="$(curl -fsS "http://$ADDR/debug/constellation.json")"
grep -q '"satellites"' <<<"$CONSTELLATION" || { echo "smoke_spaced: /debug/constellation.json missing satellites" >&2; exit 1; }

MAPSVG="$(curl -fsS "http://$ADDR/debug/map.svg")"
grep -q '<svg' <<<"$MAPSVG" || { echo "smoke_spaced: /debug/map.svg is not SVG" >&2; exit 1; }
grep -q '</svg>' <<<"$MAPSVG" || { echo "smoke_spaced: /debug/map.svg is truncated" >&2; exit 1; }
echo "smoke_spaced: hot-spot endpoints OK"

# Graceful drain: SIGTERM must produce an exit-0 daemon that logged the
# drained summary.
kill -TERM "$SPACED_PID"
wait "$SPACED_PID"
SPACED_PID=""
grep -q '^drained:' "$LOG" || { cat "$LOG" >&2; echo "smoke_spaced: no drained summary in daemon log" >&2; exit 1; }
echo "smoke_spaced: single-shard pass OK ($ACCEPTED accepts, clean drain)"

# --- Cluster mode: the same burst against two shard engines. ---
LOG2="$WORK/spaced-shards.log"
REPORT2="$WORK/spaced-shards-report.json"
"$WORK/spaced" -addr 127.0.0.1:0 -clock-rate 4 -queue-depth 64 -batch-size 8 \
  -shards 2 -router round-robin -report "$REPORT2" >"$LOG2" 2>&1 &
SPACED_PID=$!

ADDR2="$(wait_listening "$LOG2" "sharded spaced")"
grep -q 'cluster     2 shards, round-robin router' "$LOG2" || { cat "$LOG2" >&2; echo "smoke_spaced: no cluster startup line" >&2; exit 1; }
echo "smoke_spaced: sharded daemon up on $ADDR2"

SUMMARY2="$("$WORK/spaceload" -addr "http://$ADDR2" -mode closed -concurrency 4 -duration 3s \
  | tee /dev/stderr | sed -n 's/^SUMMARY //p')"
ACCEPTED2="$(sed -n 's/.*accepted=\([0-9]*\).*/\1/p' <<<"$SUMMARY2")"
ERRORS2="$(sed -n 's/.*errors=\([0-9]*\).*/\1/p' <<<"$SUMMARY2")"
[[ "${ACCEPTED2:-0}" -gt 0 ]] || { echo "smoke_spaced: zero accepted bookings under -shards 2 ($SUMMARY2)" >&2; exit 1; }
[[ "${ERRORS2:-1}" -eq 0 ]] || { echo "smoke_spaced: client errors under -shards 2 ($SUMMARY2)" >&2; exit 1; }

# /v1/stats must expose the shard section: two rows, the router name,
# and at least one cross-shard booking (round-robin over a multi-plane
# constellation makes one essentially certain in a multi-second burst).
STATS="$(curl -fsS "http://$ADDR2/v1/stats")"
grep -q '"shards"' <<<"$STATS" || { echo "smoke_spaced: /v1/stats missing shard section: $STATS" >&2; exit 1; }
grep -q '"router": *"round-robin"' <<<"$STATS" || { echo "smoke_spaced: /v1/stats missing router: $STATS" >&2; exit 1; }
[[ "$(grep -co '"queue_depth"' <<<"$STATS")" -ge 1 ]] || { echo "smoke_spaced: shard rows malformed: $STATS" >&2; exit 1; }
grep -Eq '"prepared": *[1-9]' <<<"$STATS" || { echo "smoke_spaced: no prepares recorded under -shards 2: $STATS" >&2; exit 1; }
grep -Eq '"cross_shard": *[1-9]' <<<"$STATS" || { echo "smoke_spaced: no cross-shard bookings under -shards 2: $STATS" >&2; exit 1; }
echo "smoke_spaced: shard stats OK"

# Graceful drain, again — now through the cluster's two-phase intake.
kill -TERM "$SPACED_PID"
wait "$SPACED_PID"
SPACED_PID=""
grep -q '^drained:' "$LOG2" || { cat "$LOG2" >&2; echo "smoke_spaced: no drained summary from sharded daemon" >&2; exit 1; }

# The run report must carry the cluster reconciliation counters and
# survive an obsdiff self-diff (the perf-gate path stays cluster-aware).
grep -q '"cluster.aborted.total"' "$REPORT2" || { echo "smoke_spaced: cluster.aborted.total missing from report" >&2; exit 1; }
grep -q '"cluster.prepared.total"' "$REPORT2" || { echo "smoke_spaced: cluster.prepared.total missing from report" >&2; exit 1; }
go run ./cmd/obsdiff "$REPORT2" "$REPORT2" >/dev/null

# --- Arrival-driven clock: the load generator's slots drive the server. ---
LOG3="$WORK/spaced-arrival.log"
"$WORK/spaced" -addr 127.0.0.1:0 -clock-rate 0 -queue-depth 64 -batch-size 8 >"$LOG3" 2>&1 &
SPACED_PID=$!
ADDR3="$(wait_listening "$LOG3" "arrival-driven spaced")"

# One connection keeps the declared arrival slots in order; the run ends
# by itself after one pass over the mix.
SUMMARY3="$("$WORK/spaceload" -addr "http://$ADDR3" -mode closed -concurrency 1 -duration 60s \
  | tee /dev/stderr | sed -n 's/^SUMMARY //p')"
ACCEPTED3="$(sed -n 's/.*accepted=\([0-9]*\).*/\1/p' <<<"$SUMMARY3")"
REJECTED3="$(sed -n 's/.*rejected=\([0-9]*\).*/\1/p' <<<"$SUMMARY3")"
ERRORS3="$(sed -n 's/.*errors=\([0-9]*\).*/\1/p' <<<"$SUMMARY3")"
[[ "${ACCEPTED3:-0}" -gt 0 ]] || { echo "smoke_spaced: zero accepted bookings under -clock-rate 0 ($SUMMARY3)" >&2; exit 1; }
[[ "${ERRORS3:-1}" -eq 0 ]] || { echo "smoke_spaced: client errors under -clock-rate 0 ($SUMMARY3)" >&2; exit 1; }

SLOT3="$(curl -fsS "http://$ADDR3/v1/stats" | sed -n 's/^  "slot": *\([0-9-]*\),*$/\1/p')"
[[ "${SLOT3:-0}" -gt 0 ]] || { echo "smoke_spaced: arrival-driven clock still at slot ${SLOT3:-?} after the burst" >&2; exit 1; }

# Reservation ids count up from 1 in arrival order: walk back from the
# last one to an accepted booking and require it to start past slot 0.
LATE_START=""
for id in $(seq $((ACCEPTED3 + REJECTED3)) -1 1); do
  RESV="$(curl -fsS "http://$ADDR3/v1/reservations/$id")"
  if grep -q '"status": *"accepted"' <<<"$RESV"; then
    LATE_START="$(sed -n 's/.*"start_slot": *\([0-9]*\).*/\1/p' <<<"$RESV")"
    break
  fi
done
[[ "${LATE_START:-0}" -gt 0 ]] || { echo "smoke_spaced: last accepted booking under -clock-rate 0 starts at slot ${LATE_START:-?}" >&2; exit 1; }
kill -TERM "$SPACED_PID"
wait "$SPACED_PID"
SPACED_PID=""
echo "smoke_spaced: arrival-driven pass OK ($ACCEPTED3 accepts, clock at slot $SLOT3, last accept starts at slot $LATE_START)"

echo "smoke_spaced: OK ($ACCEPTED accepts single-shard, $ACCEPTED2 accepts sharded, $ACCEPTED3 accepts arrival-driven, clean drains)"
