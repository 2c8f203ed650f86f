#!/usr/bin/env bash
# Runs the JSON-emitting benches and leaves their artifacts at the workspace
# root (BENCH_<experiment>.json), so the perf trajectory is a committed,
# diffable series rather than a pile of terminal scrollback.
#
# Usage:
#   scripts/bench_json.sh            # all JSON benches, toy-scale (minutes)
#   scripts/bench_json.sh e13        # only benches matching the filter
#   TIBPRE_E12_RECORDS=1000000 scripts/bench_json.sh e12   # nightly scale
#
# Each bench honours TIBPRE_BENCH_JSON to redirect its output file; this
# script leaves the default (workspace root) in place on purpose.
set -euo pipefail
cd "$(dirname "$0")/.."

# The JSON-emitting benches, one per line.
benches=(
  e12_resident
  e13_server
  e15_multipairing
)

filter="${1:-}"
ran=0
for bench in "${benches[@]}"; do
  if [[ -n "$filter" && "$bench" != *"$filter"* ]]; then
    continue
  fi
  echo "== $bench =="
  cargo bench -p tibpre-bench --bench "$bench"
  ran=$((ran + 1))
done

if [[ $ran -eq 0 ]]; then
  echo "bench_json.sh: no bench matches filter '$filter'" >&2
  exit 1
fi

echo "== artifacts =="
# nullglob keeps the listing from failing when a filtered run produced only
# a subset (or an earlier clean checkout has no artifacts yet).
shopt -s nullglob
artifacts=(BENCH_*.json)
if [[ ${#artifacts[@]} -gt 0 ]]; then
  ls -l "${artifacts[@]}"
else
  echo "(none yet)"
fi
