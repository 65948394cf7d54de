#!/usr/bin/env bash
# benchdiff.sh — hot-path benchmark regression gate (`make bench`).
#
# Runs the guarded hot-path benchmarks with -benchmem:
#
#   BenchmarkControlStepLatency — one control decision (the per-interval
#                                 cost on the device, §IV-C)
#   BenchmarkPolicyUpdate       — one mini-batch policy update (the
#                                 training hot path, on the batched kernels)
#   BenchmarkPolicyUpdateBatch  — the same update across batch sizes 32 /
#                                 128 / 512 (the batched kernels' cost
#                                 model); every size is gated
#   BenchmarkAdamStep           — the optimiser step inside that update at
#                                 687 parameters: fresh (every moment a
#                                 normal number), stuck (first moments of the
#                                 zero-gradient parameters on their subnormal
#                                 fixed point, as after ≈ 7 000 updates) and
#                                 stuckv (second moments too, ≈ 720 000
#                                 updates); all gated, 0 allocs/op, and stuck
#                                 must not be slower than fresh — a deployed
#                                 controller's update does not slow down
#   BenchmarkReplayAdd          — recording one interaction once the replay
#                                 ring has wrapped; must stay 0 allocs/op
#                                 (Add recycles the evicted state storage)
#   BenchmarkWireEncode/Decode/RoundTrip
#                               — one 687-parameter model frame through the
#                                 federation wire path, per codec; every
#                                 variant is recorded, the dense ones (the
#                                 paper's wire format) are gated
#   BenchmarkTreeAggregate      — one interior-node aggregation step per
#                                 fan-out (2/4/8/16 child subtrees at the
#                                 paper's model size); every fan-out is
#                                 recorded and gated — the relay hot path
#                                 is allocation-free like the wire path
#   BenchmarkServerRound        — one complete federated round (broadcast,
#                                 collect, exact accumulate, mean) over TCP
#                                 loopback with 8 devices, dense and quant8;
#                                 both are gated and must stay 0 allocs/op —
#                                 the persistent round workers and session
#                                 scratch keep the whole plane off the heap
#   BenchmarkEffectAnalysis     — one effect-and-allocation analysis pass
#                                 (allocfree + maporder + slotrace) over
#                                 the module; the static proofs must stay
#                                 cheap enough to run on every test
#   BenchmarkWireBound          — one interval-bounds pass (the wirebound
#                                 hostile-input proof) over the module;
#                                 gated on ns/op like the other analysis
#                                 passes, allocs/op exempt
#
# Each benchmark runs BENCH_COUNT times (default 3) and the *minimum* ns/op
# of the runs is recorded and compared — the minimum is the least noisy
# estimate of a benchmark's true cost on a shared machine, where scheduler
# interference only ever adds time (bytes/op and allocs/op take the maximum,
# the conservative direction for the no-new-allocs rule).
#
# Writes the measurements to BENCH_<date>.json, then compares them against
# the committed BENCH_baseline.json and fails when
#
#   * ns/op regresses by more than BENCH_BUDGET_PCT percent (default 20), or
#   * allocs/op increases at all (the training core is allocation-free;
#     any new allocation in the hot loop is a regression by definition), or
#   * BenchmarkAdamStep/stuck is slower than BenchmarkAdamStep/fresh in this
#     run (no baseline involved: both rows come from the same process).
#
# Refresh the baseline intentionally by copying a fresh BENCH_<date>.json
# over BENCH_baseline.json in a reviewed commit. On a machine without a
# baseline the script bootstraps one from the current run and succeeds.
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN='BenchmarkControlStepLatency$|BenchmarkPolicyUpdate$|BenchmarkPolicyUpdateBatch$|BenchmarkAdamStep$|BenchmarkReplayAdd$|BenchmarkWireEncode$|BenchmarkWireDecode$|BenchmarkWireRoundTrip$|BenchmarkTreeAggregate$|BenchmarkServerRound$|BenchmarkEffectAnalysis$|BenchmarkWireBound$'
BUDGET_PCT="${BENCH_BUDGET_PCT:-20}"
COUNT="${BENCH_COUNT:-3}"
BASELINE="BENCH_baseline.json"
TODAY="$(date +%Y-%m-%d)"
OUT="BENCH_${TODAY}.json"

echo "==> go test -bench '$PATTERN' -benchmem -count $COUNT . ./internal/nn ./internal/fed ./internal/lint"
RAW="$(go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "${BENCH_TIME:-1s}" -count "$COUNT" . ./internal/nn ./internal/fed ./internal/lint)"
echo "$RAW"

# Render the `go test -bench` table as a small JSON document. Bench lines
# look like:
#   BenchmarkPolicyUpdate-8   13940   87642 ns/op   1 B/op   0 allocs/op
# and, for benchmarks that call SetBytes, carry an extra MB/s column — so
# each value is found by its unit label, not its column position. With
# -count > 1 each benchmark emits one line per run; the runs collapse to
# min ns/op and max bytes/op / allocs/op, in first-seen order.
{
  echo '{'
  echo "  \"date\": \"${TODAY}\","
  echo "  \"go\": \"$(go env GOVERSION)\","
  echo '  "benchmarks": ['
  echo "$RAW" | awk '
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      ns = ""; bytes = 0; allocs = 0
      for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        else if ($i == "B/op") bytes = $(i - 1)
        else if ($i == "allocs/op") allocs = $(i - 1)
      }
      if (ns == "") next
      if (!(name in minNs)) {
        order[++n] = name
        minNs[name] = ns; maxBytes[name] = bytes; maxAllocs[name] = allocs
      } else {
        if (ns + 0 < minNs[name] + 0) minNs[name] = ns
        if (bytes + 0 > maxBytes[name] + 0) maxBytes[name] = bytes
        if (allocs + 0 > maxAllocs[name] + 0) maxAllocs[name] = allocs
      }
    }
    END {
      for (i = 1; i <= n; i++) {
        name = order[i]
        printf "%s    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
               sep, name, minNs[name], maxBytes[name], maxAllocs[name]
        sep = ",\n"
      }
      print ""
    }'
  echo '  ]'
  echo '}'
} > "$OUT"
echo "==> wrote $OUT"

# json_field FILE NAME KEY — extract one numeric field of one benchmark
# entry from the flat JSON written above (no jq dependency).
json_field() {
  awk -v n="$2" -v k="$3" '
    index($0, "\"name\": \"" n "\"") {
      if (match($0, "\"" k "\": [0-9.e+-]+")) {
        s = substr($0, RSTART, RLENGTH)
        sub(/.*: /, "", s)
        print s
      }
    }' "$1"
}

if [ ! -f "$BASELINE" ]; then
  echo "==> no $BASELINE found — bootstrapping baseline from this run"
  cp "$OUT" "$BASELINE"
  exit 0
fi

fail=0
for name in BenchmarkControlStepLatency BenchmarkPolicyUpdate \
            BenchmarkPolicyUpdateBatch/batch32 BenchmarkPolicyUpdateBatch/batch128 \
            BenchmarkPolicyUpdateBatch/batch512 \
            BenchmarkAdamStep/fresh BenchmarkAdamStep/stuck BenchmarkAdamStep/stuckv \
            BenchmarkReplayAdd \
            BenchmarkWireEncode/dense BenchmarkWireDecode/dense BenchmarkWireRoundTrip/dense \
            BenchmarkTreeAggregate/fanout2 BenchmarkTreeAggregate/fanout4 \
            BenchmarkTreeAggregate/fanout8 BenchmarkTreeAggregate/fanout16 \
            BenchmarkServerRound/dense BenchmarkServerRound/quant8 \
            BenchmarkEffectAnalysis BenchmarkWireBound; do
  cur_ns="$(json_field "$OUT" "$name" ns_per_op)"
  cur_allocs="$(json_field "$OUT" "$name" allocs_per_op)"
  base_ns="$(json_field "$BASELINE" "$name" ns_per_op)"
  base_allocs="$(json_field "$BASELINE" "$name" allocs_per_op)"
  if [ -z "$cur_ns" ] || [ -z "$base_ns" ]; then
    echo "FAIL  $name: missing from current run or baseline"
    fail=1
    continue
  fi
  delta="$(awk -v c="$cur_ns" -v b="$base_ns" 'BEGIN { printf "%+.1f", (c-b)/b*100 }')"
  if awk -v c="$cur_ns" -v b="$base_ns" -v lim="$BUDGET_PCT" \
       'BEGIN { exit !(c > b*(1+lim/100)) }'; then
    echo "FAIL  $name: ${cur_ns} ns/op vs baseline ${base_ns} ns/op (${delta}% > +${BUDGET_PCT}% budget)"
    fail=1
  # The analysis passes allocate in proportion to the module they analyze, so
  # only their wall clock is gated; the zero-alloc rule is for device hot paths.
  elif [ "$name" != BenchmarkEffectAnalysis ] && [ "$name" != BenchmarkWireBound ] && \
       [ "${cur_allocs%.*}" -gt "${base_allocs%.*}" ]; then
    echo "FAIL  $name: ${cur_allocs} allocs/op vs baseline ${base_allocs} allocs/op"
    fail=1
  else
    echo "ok    $name: ${cur_ns} ns/op (${delta}% vs baseline), ${cur_allocs} allocs/op"
  fi
done

# The optimiser must not cost more on a long-trained controller than on a
# fresh one: it skips the parameters whose moments are stuck, so it costs
# less, and on the plain loop stuck reads 18x fresh.
fresh_ns="$(json_field "$OUT" BenchmarkAdamStep/fresh ns_per_op)"
stuck_ns="$(json_field "$OUT" BenchmarkAdamStep/stuck ns_per_op)"
if awk -v s="$stuck_ns" -v f="$fresh_ns" 'BEGIN { exit !(s > f) }'; then
  echo "FAIL  BenchmarkAdamStep/stuck: ${stuck_ns} ns/op is slower than BenchmarkAdamStep/fresh at ${fresh_ns} ns/op"
  fail=1
else
  echo "ok    BenchmarkAdamStep/stuck: ${stuck_ns} ns/op <= BenchmarkAdamStep/fresh at ${fresh_ns} ns/op"
fi

if [ "$fail" -ne 0 ]; then
  echo "==> hot-path benchmark regression (budget +${BUDGET_PCT}% ns/op, no new allocs)"
  exit 1
fi
echo "==> benchmarks within budget"
