#!/usr/bin/env bash
# bench_pair.sh — the paired protocol as a command: measure the working
# tree against another commit the way a timing claim has to be measured
# on a host that drifts (benchmark/README.md "Sensitivity",
# EXPERIMENTS.md).
#
# REF is extracted into a throw-away directory with `git archive` (no
# worktree to register or clean up), and for every seed both sides run
#
#   bash benchmark/run.sh --workload WORKLOAD --seed S --seconds 15 --trace 0
#
# one after the other on that seed, the side that goes first alternating
# from seed to seed. Every run is printed as it finishes; the table at
# the end gives, per metric, each side's median [Q1, Q3] (the acceptance
# driver's quartile rule), the ratio of the medians, how many pairs the
# change won (ties count for neither; direction from BENCHMARK.json) and
# the verdict of the rule a claim is judged by: `resolved` when the change
# wins at least nine tenths of the pairs run and the medians differ by
# more than the parent's Q3 − Q1, `resolved-worse` when it loses by the
# same rule, `identical` when every pair ties, `unresolved` otherwise.
#
# Usage:
#   scripts/bench_pair.sh REF WORKLOAD [SEEDS]
#
#   REF       commit to compare against (the parent: HEAD~1, a hash, ...)
#   WORKLOAD  full_direct | medium_direct_wide | small_served_closed |
#             medium_served_open
#   SEEDS     quoted list, default "1 2 3 4 5 6 7 8 9 10"
#
# Environment:
#   TRACE=1     traced runs: the table lists the per-layer metrics and
#               only counts that repeat are comparable to the last digit
#
# Raw `#result` lines of every run are kept in
# .bench_build/pair/WORKLOAD.traceN.results (side, seed, order, JSON).
# Every table row is also appended to results/trajectory.jsonl as one
# JSON line (format at the top of EXPERIMENTS.md).
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 3 ]]; then
  sed -n 's/^# \{0,1\}//p' "$0" | sed -n '/^Usage:/,/^Raw /p' >&2
  exit 2
fi
REF="$1"
WORKLOAD="$2"
SEEDS="${3:-1 2 3 4 5 6 7 8 9 10}"
TRACE="${TRACE:-0}"

REF_HASH="$(git rev-parse --verify --short "$REF^{commit}")"
HEAD_HASH="$(git rev-parse --short HEAD)"
DIRTY=false
if [[ -n "$(git status --porcelain --untracked-files=no)" ]]; then DIRTY=true; fi
TRAJECTORY=results/trajectory.jsonl
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$WORK/ref" .bench_build/pair
git archive "$REF_HASH" | tar -x -C "$WORK/ref"

RESULTS=".bench_build/pair/$WORKLOAD.trace$TRACE.results"
VALUES="$WORK/values" # side seed metric value
CALIB="$WORK/calib"   # side seed calib_ms_before
NOISY="$WORK/noisy"   # one line per run flagged noisy
: >"$RESULTS"
: >"$VALUES"
: >"$CALIB"
: >"$NOISY"

# run_side SIDE DIR SEED ORDER: one benchmark run; appends its metrics.
run_side() {
  local side="$1" dir="$2" seed="$3" order="$4" out status=0
  out="$(cd "$dir" && bash benchmark/run.sh --workload "$WORKLOAD" --seed "$seed" --seconds 15 --trace "$TRACE")" || status=$?
  if [[ $status -ne 0 ]] || grep -q '^check .*FAILED' <<<"$out"; then
    echo "$out" >&2
    echo "bench_pair: $side run failed on seed $seed (exit $status)" >&2
    exit 1
  fi
  echo "$side $seed $order $(sed -n 's/^#result //p' <<<"$out")" >>"$RESULTS"
  # Metric rows of the printed report: two leading spaces, name, value, unit.
  awk -v side="$side" -v seed="$seed" '/^  [a-z_.0-9]+ +[-0-9.e+]+ / { print side, seed, $1, $2 }' <<<"$out" >>"$VALUES"
  sed -n 's/^#result .*"calib_ms_before":\([-0-9.e+]*\).*/'"$side $seed"' \1/p' <<<"$out" >>"$CALIB"
  printf 'run  seed %-3s %-6s (%s)' "$seed" "$side" "$order"
  if [[ "$TRACE" == 0 ]]; then
    awk -v side="$side" -v seed="$seed" '$1 == side && $2 == seed { printf "  %s=%s", $3, $4 }' "$VALUES"
  fi
  if grep -q '^note  run flagged noisy' <<<"$out"; then
    printf '  [noisy]'
    echo "$side $seed" >>"$NOISY"
  fi
  printf '\n'
}

echo "bench_pair: $WORKLOAD, parent $REF_HASH vs the working tree, seeds $SEEDS, --seconds 15 --trace $TRACE"
parent_first=1
for seed in $SEEDS; do
  if [[ $parent_first -eq 1 ]]; then
    run_side parent "$WORK/ref" "$seed" first
    run_side change "$PWD" "$seed" second
  else
    run_side change "$PWD" "$seed" first
    run_side parent "$WORK/ref" "$seed" second
  fi
  parent_first=$((1 - parent_first))
done

# "name better" for every metric BENCHMARK.json declares.
sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*/\1 \2/p' BENCHMARK.json >"$WORK/better"

echo
mkdir -p "$(dirname "$TRAJECTORY")"
awk -v ref="$REF_HASH" -v head="$HEAD_HASH" -v dirty="$DIRTY" -v workload="$WORKLOAD" -v trace="$TRACE" \
  -v noisy="$(wc -l <"$NOISY")" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v traj="$TRAJECTORY" '
  function sortvals(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]; a[j+1] = t }
  }
  function median(a, n) { return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2 }
  # statistics.quantiles(xs, n=4), the exclusive method the driver uses.
  function quartile(a, n, i,    m, j, d) {
    if (n < 2) return a[1]
    m = n + 1; j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
    d = i * m - j * 4
    return (a[j] * (4 - d) + a[j+1] * d) / 4
  }
  function calibmedian(side,    a, i, n) {
    n = ncal[side]
    if (n == 0) return "null"
    for (i = 1; i <= n; i++) a[i] = cal[side, i]
    sortvals(a, n)
    return sprintf("%.6g", median(a, n))
  }
  FILENAME ~ /better$/ { better[$1] = $2; next }
  FILENAME ~ /calib$/ { cal[$1, ++ncal[$1]] = $3; next }
  {
    side = $1; seed = $2; m = $3
    if (!(m in seen)) { seen[m] = 1; order[++nm] = m }
    if (!(seed in seenseed)) { seenseed[seed] = 1; seeds[++ns] = seed }
    val[side, m, seed] = $4
  }
  END {
    printf "%-38s %-34s %-34s %8s  %-17s %s\n", "metric", "parent median [Q1, Q3]", "change median [Q1, Q3]", "ratio", "pairs won", "verdict"
    for (k = 1; k <= nm; k++) {
      m = order[k]; np = 0; nc = 0; won = 0; lost = 0
      for (s = 1; s <= ns; s++) {
        sd = seeds[s]
        if (!((("parent" SUBSEP m SUBSEP sd) in val) && (("change" SUBSEP m SUBSEP sd) in val))) continue
        p[++np] = val["parent", m, sd]; c[++nc] = val["change", m, sd]
        if (better[m] == "higher") { if (c[nc] > p[np]) won++; else if (c[nc] < p[np]) lost++ }
        else { if (c[nc] < p[np]) won++; else if (c[nc] > p[np]) lost++ }
      }
      if (np == 0) continue
      sortvals(p, np); sortvals(c, nc)
      pm = median(p, np); cm = median(c, nc)
      q1 = quartile(p, np, 1); q3 = quartile(p, np, 3)
      cq1 = quartile(c, nc, 1); cq3 = quartile(c, nc, 3)
      ps = sprintf("%.6g [%.6g, %.6g]", pm, q1, q3)
      cs = sprintf("%.6g [%.6g, %.6g]", cm, cq1, cq3)
      ratio = pm != 0 ? sprintf("%.3f", cm / pm) : "-"
      # gain: how far the median moved in the better direction.
      gain = better[m] == "higher" ? cm - pm : pm - cm
      verdict = "unresolved"
      if (won == 0 && lost == 0) verdict = "identical"
      else if (10 * won >= 9 * np && gain > q3 - q1) verdict = "resolved"
      else if (10 * lost >= 9 * np && -gain > q3 - q1) verdict = "resolved-worse"
      printf "%-38s %-34s %-34s %8s  %-17s %s\n", m, ps, cs, ratio, sprintf("%d/%d (lost %d)", won, np, lost), verdict
      printf "{\"date\":\"%s\",\"ref\":\"%s\",\"head\":\"%s\",\"dirty\":%s,\"workload\":\"%s\",\"trace\":%d,\"metric\":\"%s\",\"pairs\":%d," \
        "\"parent\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g,\"calib_ms_before\":%s}," \
        "\"change\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g,\"calib_ms_before\":%s}," \
        "\"won\":%d,\"lost\":%d,\"verdict\":\"%s\",\"noisy_runs\":%d}\n",
        date, ref, head, dirty, workload, trace, m, np, pm, q1, q3, calibmedian("parent"), cm, cq1, cq3, calibmedian("change"),
        won, lost, verdict, noisy >>traj
    }
  }
' "$WORK/better" "$CALIB" "$VALUES"
echo
echo "bench_pair: raw results in $RESULTS; table rows appended to $TRAJECTORY"
