#!/usr/bin/env bash
# benchab.sh <base-rev> — the speed gate (`make bench` runs it against HEAD,
# CI against the merge base): fedbench on <base-rev> and on this working
# tree, measured now, on this host, side by side. No number is stored
# anywhere: the same box reads 1–5 % apart within half an hour and up to
# 17 % apart across hours (bench/README.md), so only back-to-back sets
# compare.
#
# The base is checked out into a temporary git worktree. Both sides then run
# the whole benchmark exactly as BENCHMARK.json does (`sh bench/run.sh`: all
# seven workloads, built from the side's own source) seven times, same seeds
# on both sides, alternating which side goes first. Seven, because the
# quartiles `-compare` takes of seven runs are the second and the sixth, so
# one run per side that a neighbour on the host disturbed is ignored; of
# three runs they are the minimum and the maximum. `-compare` ends it, and
# its exit status is this script's: 1 when an end-to-end metric of this tree
# is worse than the base's by more than its bound, or spreads wider than it.
# About 22 minutes on a 2-vCPU host.
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:?usage: scripts/benchab.sh <base-rev>}"
if ! git cat-file -e "$base:bench/run.sh" 2>/dev/null; then
  echo "benchab: $base predates bench/ — nothing to compare against"
  exit 0
fi

tmp="$(mktemp -d)"
trap 'git worktree remove --force "$tmp/base" 2>/dev/null; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/base" "$base"

for pair in 1 2 3 4 5 6 7; do
  sides="base head"
  if [ $((pair % 2)) -eq 0 ]; then sides="head base"; fi
  for side in $sides; do
    echo "==> pair $pair of 7: $side"
    dir="$PWD"
    if [ "$side" = base ]; then dir="$tmp/base"; fi
    (cd "$dir" && sh bench/run.sh --seed "$pair" --json "$tmp/$side.jsonl") > "$tmp/run.log" 2>&1 \
      || { cat "$tmp/run.log"; echo "benchab: the $side run of pair $pair failed"; exit 1; }
  done
done

sh bench/run.sh -compare "$tmp/base.jsonl" "$tmp/head.jsonl"
