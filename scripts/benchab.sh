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
#
# Before the pairs it prints the layout table: the address of each symbol
# on the device path in both sides' fedbench binaries, and whether the two
# differ mod 64. The device workloads read a 32-byte shift of that code as
# a 15–30 % change with no device code touched, so a moved symbol says to
# read a device-workload difference as layout first. The table is
# informational and does not change the exit status. The amd64 kernels of
# the batched update (internal/nn/kernels_amd64.s) carry the .abi0 suffix
# of assembly symbols; the linker places them after the package's Go code.
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

# The layout table. bench/run.sh builds the side's binary before running
# it; -h makes the run itself a no-op. A side that does not build prints
# empty rows here and fails in its first pair, as before.
for side in base head; do
  dir="$PWD"
  if [ "$side" = base ]; then dir="$tmp/base"; fi
  (cd "$dir" && sh bench/run.sh -h) > /dev/null 2>&1 || true
  go tool nm "$dir/.bench_build/fedbench" > "$tmp/$side.nm" 2> /dev/null || : > "$tmp/$side.nm"
done
echo "==> device-path layout, base against head"
printf '%-38s %8s %8s  %s\n' symbol base head 'mod 64'
for sym in 'nn.(*Network).ForwardBatch' 'nn.(*Network).BackwardBatch' 'nn.(*Network).backpropBatch' \
  'nn.forwardHidden' 'nn.seedDelta' 'nn.gradHidden' 'nn.forwardHiddenSSE2.abi0' 'nn.seedDeltaSSE2.abi0' \
  'nn.gradHiddenSSE2.abi0' 'nn.(*Network).Forward' 'nn.dot4' \
  'nn.(*Adam).Step' 'replay.(*Buffer).Add' 'replay.(*Buffer).SampleInto' 'sim.(*Device).Step' \
  'core.(*Controller).policyAt' 'core.(*Controller).GreedyAction' 'core.(*Controller).Observe' \
  'core.(*Controller).Update' 'workload.(*Stream).Next' 'experiment.(*NeuralDevice).TrainRound' \
  'experiment.(*NeuralDevice).step' 'experiment.(*neuralPolicy).Action'; do
  b="$(awk -v s="fedpower/internal/$sym" '$2 == "T" && $3 == s { print $1 }' "$tmp/base.nm")"
  h="$(awk -v s="fedpower/internal/$sym" '$2 == "T" && $3 == s { print $1 }' "$tmp/head.nm")"
  if [ -z "$b" ] || [ -z "$h" ]; then
    verdict="not in both binaries"
  elif [ $(( (0x$h - 0x$b) % 64 )) -eq 0 ]; then
    verdict=same
  else
    verdict="moved by $(( ((0x$h - 0x$b) % 64 + 64) % 64 ))"
  fi
  printf '%-38s %8s %8s  %s\n' "$sym" "${b:--}" "${h:--}" "$verdict"
done

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
