#!/usr/bin/env bash
# welfare_pair.sh — the decision-quality gate as a command: does the
# working tree decide as well as another commit? Where bench_pair.sh asks
# "how fast", this asks "how good", on the admission decisions alone.
#
# REF is extracted into a throw-away directory with `git archive`, both
# sides build `spacebench`, and for every cell (CEAR at small and medium
# scale, the scale's default arrival rate ×1 and ×2) and every seed both
# sides run
#
#   spacebench run -alg CEAR -scale SCALE -rate RATE -seed S -trace T -report R
#
# Per cell it prints, over the seeds:
#   * Δ welfare_ratio = change − parent per seed: median [Q1, Q3] and the
#     pairs won and lost (ties count for neither);
#   * Δ mean depleted satellites: the median per-seed difference;
#   * the accepted-set overlap: Jaccard |A ∩ B| / |A ∪ B| of the request
#     indices the two traces accepted, minimum and median over the seeds;
#   * a verdict, the first that holds of
#       identical       every seed accepts the same set with the same
#                       welfare_ratio and mean depleted satellites;
#       equivalent      every |Δ welfare_ratio| <= MARGIN;
#       better          the change wins at least nine tenths of the pairs
#                       and the median Δ exceeds MARGIN;
#       resolved-worse  the change loses at least nine tenths of the pairs
#                       and the median Δ is below −MARGIN;
#       unresolved      anything else.
#
# MARGIN is 0.005 in welfare_ratio, absolute: about 1 % of the ratio these
# cells run at (0.3–0.5), and under half the 0.012–0.014 that CEAR pricing
# every slot against the pre-request state loses on medium (EXPERIMENTS.md
# "One pricing lane").
#
# Usage:
#   scripts/welfare_pair.sh REF [SEEDS]
#
#   REF    commit to compare against (the parent: HEAD~1, a hash, ...)
#   SEEDS  quoted list, default "1 2 3 4 5 6 7 8 9 10"
#
# Every cell is also appended to results/trajectory.jsonl as one JSON line
# with metric welfare_ratio (format at the top of EXPERIMENTS.md). All four
# cells on ten seeds take about 35 s on a 2-vCPU VM.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 || $# -gt 2 ]]; then
  sed -n 's/^# \{0,1\}//p' "$0" | sed -n '/^Usage:/,/^Every /p' >&2
  exit 2
fi
REF="$1"
SEEDS="${2:-1 2 3 4 5 6 7 8 9 10}"
MARGIN=0.005

REF_HASH="$(git rev-parse --verify --short "$REF^{commit}")"
HEAD_HASH="$(git rev-parse --short HEAD)"
DIRTY=false
if [[ -n "$(git status --porcelain --untracked-files=no)" ]]; then DIRTY=true; fi
TRAJECTORY=results/trajectory.jsonl
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$WORK/ref" "$WORK/runs"
git archive "$REF_HASH" | tar -x -C "$WORK/ref"
go build -C "$WORK/ref" -o "$WORK/parent.spacebench" ./cmd/spacebench
go build -o "$WORK/change.spacebench" ./cmd/spacebench

# field FILE NAME: the number a run report holds under "NAME".
field() { sed -n 's/^ *"'"$2"'": *\([-0-9.e+]*\),*$/\1/p' "$1"; }

# accepted TRACE: the request indices the trace accepted, one a line, in
# the lexical order comm and sort -m read (request 0 omits its request_id).
accepted() {
  awk '/"kind":"decision"/ && /"accepted":true/ {
    id = 0
    if (match($0, /"request_id":[0-9]+/)) id = substr($0, RSTART + 13, RLENGTH - 13)
    print id
  }' "$1" | LC_ALL=C sort
}

# run_side SIDE SCALE RATE SEED: one traced run, written under $WORK/runs.
run_side() {
  local side="$1" scale="$2" rate="$3" seed="$4" base
  base="$WORK/runs/$side.$scale.$rate.$seed"
  "$WORK/$side.spacebench" run -alg CEAR -scale "$scale" -rate "$rate" -seed "$seed" \
    -trace "$base.jsonl" -report "$base.json" >/dev/null
}

echo "welfare_pair: CEAR, parent $REF_HASH vs the working tree, seeds $SEEDS, margin $MARGIN"
printf '%-16s %-34s %-13s %-11s %-15s %s\n' cell "Δ welfare median [Q1, Q3]" "pairs won" "Δ depleted" "Jaccard min/med" verdict
mkdir -p "$(dirname "$TRAJECTORY")"
for scale in small medium; do
  # The scale's default rate, read from a run at -rate 0.
  "$WORK/change.spacebench" run -alg CEAR -scale "$scale" -seed 1 -report "$WORK/default.json" >/dev/null
  base_rate="$(field "$WORK/default.json" rate_per_min)"
  for load in 1 2; do
    rate="$(awk -v r="$base_rate" -v k="$load" 'BEGIN { print r * k }')"
    cell="${scale}_x$load"
    rows="$WORK/$cell.rows" # seed parent_welfare change_welfare parent_depleted change_depleted jaccard
    : >"$rows"
    for seed in $SEEDS; do
      run_side parent "$scale" "$rate" "$seed"
      run_side change "$scale" "$rate" "$seed"
      p="$WORK/runs/parent.$scale.$rate.$seed" c="$WORK/runs/change.$scale.$rate.$seed"
      accepted "$p.jsonl" >"$p.ids"
      accepted "$c.jsonl" >"$c.ids"
      both="$(LC_ALL=C comm -12 "$p.ids" "$c.ids" | wc -l)"
      either="$(LC_ALL=C sort -mu "$p.ids" "$c.ids" | wc -l)"
      echo "$seed $(field "$p.json" welfare_ratio) $(field "$c.json" welfare_ratio)" \
        "$(field "$p.json" mean_depleted_sats) $(field "$c.json" mean_depleted_sats)" \
        "$(awk -v b="$both" -v e="$either" 'BEGIN { printf "%.6f", e ? b / e : 1 }')" >>"$rows"
    done
    awk -v cell="$cell" -v margin="$MARGIN" -v ref="$REF_HASH" -v head="$HEAD_HASH" -v dirty="$DIRTY" \
      -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v traj="$TRAJECTORY" '
      function sortvals(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]; a[j+1] = t }
      }
      function median(a, n) { return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2 }
      # statistics.quantiles(xs, n=4), the exclusive method bench_pair.sh uses.
      function quartile(a, n, i,    m, j, d) {
        if (n < 2) return a[1]
        m = n + 1; j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
        d = i * m - j * 4
        return (a[j] * (4 - d) + a[j+1] * d) / 4
      }
      function abs(x) { return x < 0 ? -x : x }
      {
        n++; pw[n] = $2; cw[n] = $3; d[n] = $3 - $2; dd[n] = $5 - $4; jac[n] = $6
        if (d[n] > 0) won++; else if (d[n] < 0) lost++
        if ($2 != $3 || $4 != $5 || $6 != 1) moved++
        if (abs(d[n]) > margin) outside++
      }
      END {
        sortvals(pw, n); sortvals(cw, n); sortvals(d, n); sortvals(dd, n); sortvals(jac, n)
        md = median(d, n)
        verdict = "unresolved"
        if (moved == 0) verdict = "identical"
        else if (outside == 0) verdict = "equivalent"
        else if (10 * won >= 9 * n && md > margin) verdict = "better"
        else if (10 * lost >= 9 * n && md < -margin) verdict = "resolved-worse"
        printf "%-16s %-34s %-13s %-11s %-15s %s\n", cell,
          sprintf("%+.4f [%+.4f, %+.4f]", md, quartile(d, n, 1), quartile(d, n, 3)),
          sprintf("%d/%d (lost %d)", won, n, lost), sprintf("%+.2f", median(dd, n)),
          sprintf("%.4f / %.4f", jac[1], median(jac, n)), verdict
        printf "{\"date\":\"%s\",\"ref\":\"%s\",\"head\":\"%s\",\"dirty\":%s,\"workload\":\"cear_%s\",\"trace\":1,\"metric\":\"welfare_ratio\",\"pairs\":%d," \
          "\"parent\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g,\"calib_ms_before\":null}," \
          "\"change\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g,\"calib_ms_before\":null}," \
          "\"won\":%d,\"lost\":%d,\"verdict\":\"%s\",\"noisy_runs\":0," \
          "\"delta\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g},\"margin\":%g,\"depleted_delta_median\":%.6g," \
          "\"jaccard\":{\"min\":%.6g,\"median\":%.6g}}\n",
          date, ref, head, dirty, cell, n, median(pw, n), quartile(pw, n, 1), quartile(pw, n, 3),
          median(cw, n), quartile(cw, n, 1), quartile(cw, n, 3), won, lost, verdict,
          md, quartile(d, n, 1), quartile(d, n, 3), margin, median(dd, n), jac[1], median(jac, n) >>traj
      }' "$rows"
  done
done
echo
echo "welfare_pair: cells appended to $TRAJECTORY"
