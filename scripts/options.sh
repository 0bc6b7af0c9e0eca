#!/usr/bin/env bash
# options.sh — list every option a caller or a user can set, one line
# each, then the total:
#   * field: every exported field of each exported struct named Options
#     or ending in Config, in the main module's non-test Go files outside
#     benchmark/ (`field PKG.TYPE.FIELD`);
#   * flag: every flag of each command and subcommand, read from its -h
#     output (`flag COMMAND [SUBCOMMAND] -NAME`). spacebench has two flag
#     sets: `run` and the figure form, which every figure shares.
# A change that adds a knob shows here as a line; ROADMAP item 4 reads the
# total before and after.
#
# Builds the five commands into a temp dir (set TMPDIR to move it);
# writes nothing inside the repository.
#
# Usage: scripts/options.sh   (a few seconds with a warm build cache)
set -euo pipefail
cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

fields() {
  find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | LC_ALL=C sort | while read -r f; do
    pkg="$(dirname "${f#./}")"
    [ "$pkg" = . ] && pkg=spacebooking
    awk -v pkg="$pkg" '
      /^type (Options|Config|[A-Z][A-Za-z0-9_]*Config) struct \{/ { typ = $2; inside = 1; next }
      inside && /^\}/ { inside = 0; next }
      inside && /^\t[A-Za-z_]/ {
        # One declaration may name several fields: "A, B float64".
        line = substr($0, 2)
        while (match(line, /^[A-Za-z_][A-Za-z0-9_]*/)) {
          name = substr(line, 1, RLENGTH)
          if (name ~ /^[A-Z]/) print "field " pkg "." typ "." name
          line = substr(line, RLENGTH + 1)
          if (line !~ /^, */) break
          sub(/^, */, "", line)
        }
      }' "$f"
  done
}

# flags LABEL CMD...: the flags CMD -h lists, labelled.
flags() {
  local label=$1
  shift
  { "$@" -h 2>&1 || true; } | sed -n 's/^  -\([^ 	]*\).*/\1/p' | while read -r name; do
    echo "flag $label -$name"
  done
}

for cmd in constellation spacebench spaced spaceload spacestat; do
  go build -o "$work/$cmd" "./cmd/$cmd"
done

{
  fields
  flags constellation "$work/constellation"
  flags "spacebench run" "$work/spacebench" run
  flags spacebench "$work/spacebench"
  flags spaced "$work/spaced"
  flags spaceload "$work/spaceload"
  # spacestat with no arguments lists its subcommands, two spaces in.
  for sub in $({ "$work/spacestat" 2>&1 || true; } | sed -n 's/^  \([a-z][a-z]*\) .*/\1/p'); do
    flags "spacestat $sub" "$work/spacestat" "$sub"
  done
} >"$work/options"
cat "$work/options"
echo "total $(wc -l <"$work/options")"
