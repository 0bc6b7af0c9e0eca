#!/usr/bin/env bash
# smoke_spaced.sh — end-to-end serving smoke, the CI gate for the
# booking daemon: build spaced and spaceload, start the daemon at small
# scale, fire a short closed-loop burst, assert a non-zero accept count,
# probe the telemetry (the hot-spot trackers in /metrics.json, one
# `spacestat top -once` frame), then verify a clean SIGTERM drain (daemon
# exits 0 and logs its drained summary).
#
# A second pass runs the daemon on the arrival-driven clock
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
go build -o "$WORK/spacestat" ./cmd/spacestat

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

# Telemetry: the registry snapshot carries the hot-spot trackers, and
# the terminal viewer renders one frame from the live daemon.
METRICS="$(curl -fsS "http://$ADDR/metrics.json")"
grep -q '"netstate.hotspots.link_rejections"' <<<"$METRICS" || { echo "smoke_spaced: /metrics.json has no netstate.hotspots.link_rejections tracker" >&2; exit 1; }
TOP="$("$WORK/spacestat" top -once -addr "http://$ADDR")"
grep -q '^spacetop — slot [0-9]*, uptime' <<<"$TOP" || { echo "smoke_spaced: spacestat top printed no header: $TOP" >&2; exit 1; }
grep -q '^HOT LINKS (congestion rejections)' <<<"$TOP" || { echo "smoke_spaced: spacestat top printed no link table: $TOP" >&2; exit 1; }
echo "smoke_spaced: telemetry OK"

# Graceful drain: SIGTERM must produce an exit-0 daemon that logged the
# drained summary.
kill -TERM "$SPACED_PID"
wait "$SPACED_PID"
SPACED_PID=""
grep -q '^drained:' "$LOG" || { cat "$LOG" >&2; echo "smoke_spaced: no drained summary in daemon log" >&2; exit 1; }
echo "smoke_spaced: real-time pass OK ($ACCEPTED accepts, clean drain)"

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

echo "smoke_spaced: OK ($ACCEPTED accepts real-time, $ACCEPTED3 accepts arrival-driven, clean drains)"
