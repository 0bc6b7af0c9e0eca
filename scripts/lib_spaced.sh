# lib_spaced.sh — sourced by the smoke scripts that boot a spaced daemon.

# Sourcing sets up what every such script needs: a scratch directory
# WORK, and an exit trap that kills the daemon whose pid the script keeps
# in SPACED_PID (empty: none running) and removes WORK.
WORK="$(mktemp -d)"
SPACED_PID=""
cleanup() {
  if [[ -n "$SPACED_PID" ]]; then kill "$SPACED_PID" 2>/dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# wait_listening LOG WHAT: environment construction takes a few seconds;
# wait for the daemon started as $SPACED_PID to log its listen line and
# print the address it bound. Exits the script if the daemon dies or
# stays silent for two minutes.
wait_listening() {
  local log="$1" what="$2" addr="" me
  me="$(basename "$0" .sh)"
  for _ in $(seq 1 120); do
    addr="$(sed -n 's|^spaced listening on http://\(.*\)/$|\1|p' "$log")"
    [[ -n "$addr" ]] && break
    kill -0 "$SPACED_PID" 2>/dev/null || { cat "$log" >&2; echo "$me: $what exited before listening" >&2; exit 1; }
    sleep 1
  done
  [[ -n "$addr" ]] || { cat "$log" >&2; echo "$me: $what never started listening" >&2; exit 1; }
  echo "$addr"
}
