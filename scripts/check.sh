#!/usr/bin/env bash
# check.sh — the full verification gate, as run by CI (.github/workflows/ci.yml)
# and the Makefile's `make check`. Every step must pass:
#
#   1. go build        — the module compiles
#   2. gofmt           — `gofmt -l .` lists no file: every Go file is
#                        formatted
#   3. go vet          — toolchain static analysis
#   4. fedlint         — repo-native invariants (determinism, wire safety,
#                        float tolerance, goroutine discipline, the privacy
#                        taint boundary, and the effect proofs: allocfree
#                        hot paths, order-independent map folds, own-slot
#                        pool tasks; internal/lint)
#   5. go test         — tier-1 tests, including the fedlint self-check,
#                        the wire-format fuzz seed corpus and the exact
#                        0-allocation assertions on every hot path (control
#                        step, policy update, Adam step, replay add, wire
#                        encode/decode, tree aggregate, TCP server round)
#   6. go test -race   — race detector over every package (the federation,
#                        faultnet and experiment tests exercise real
#                        concurrency: quorum rounds with slow/dead clients)
#   7. fuzz smoke      — a short randomized pass (FUZZ_SMOKE seconds per
#                        target, default 10) over the two hostile-input
#                        decoders wirebound proves statically: readMessage
#                        and the relay collect path; the checked-in
#                        regression seeds under internal/fed/testdata/fuzz
#                        always run as part of step 5. Then the same over
#                        Adam.Step against the plain loop it must equal bit
#                        for bit, from raw (p, m, v, g) bit patterns,
#                        nn.Accum against the full-width accumulator it
#                        must equal limb for limb, from operation traces,
#                        nn.ParamSum against the plain Accum vector it
#                        must equal mean bit for bit and wire byte for byte,
#                        Network.Forward against the one-unit loop it
#                        must equal bit for bit in outputs and caches, from
#                        fuzz-chosen widths and raw float64 bit patterns,
#                        and the batched update (SSE2 on amd64) against the
#                        portable Go kernels, the same way
#   8. bench compile   — every `go test` benchmark body runs once
#                        (-benchtime 1x), so a paper-artefact, ablation or
#                        cost-model benchmark that no longer compiles or
#                        panics on its first iteration fails the gate
#                        instead of rotting; none of them is compared with
#                        anything (speed is `make bench`: fedbench, base
#                        against head)
#   9. determinism     — `make determinism`: the bit-identity and replay
#                        tests, twice over; the Makefile holds the one
#                        definition of the gate and says what it covers
#  10. parallel smoke  — one multi-worker fleet-scale run,
#                        `fedpower tree -parallel 4`, exercising the whole
#                        parallel aggregation plane end to end
#  11. portable kernels — `make portable` on a linux/amd64 host: internal/nn,
#                        internal/core and the root bit-identity tests built
#                        for GOARCH=386, which runs the Go kernels every
#                        non-amd64 GOARCH uses, held to the amd64 goldens
#                        (386 does not fuse; arm64's contraction is
#                        ROADMAP 2(a))
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l ."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
  echo "$unformatted"
  echo "gofmt: the files above are not formatted (run gofmt -w)" >&2
  exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> fedlint ./..."
# The wall-clock budget (generous: a clean run takes well under a minute,
# most of it go-build cache warmup) turns an accidentally superlinear
# analyzer — the interprocedural taint pass walks every function body in
# the module — into a hard CI failure instead of a slow creep.
FEDLINT_BUDGET="${FEDLINT_BUDGET:-300}"
if command -v timeout >/dev/null 2>&1; then
  time timeout --foreground "$FEDLINT_BUDGET" go run ./cmd/fedlint ./... \
    || { rc=$?; [ "$rc" -eq 124 ] && echo "fedlint exceeded ${FEDLINT_BUDGET}s wall-clock budget" >&2; exit "$rc"; }
else
  time go run ./cmd/fedlint ./...
fi

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./..."
go test -race ./...

# Randomized complement to the wirebound static proof: the analyzer shows no
# hostile integer reaches an allocation unbounded; the fuzzer hammers the
# same decode paths with mutated frames in case the model missed something.
FUZZ_SMOKE="${FUZZ_SMOKE:-10}"
echo "==> fuzz smoke (${FUZZ_SMOKE}s per target)"
go test -run '^$' -fuzz 'FuzzReadMessage$' -fuzztime "${FUZZ_SMOKE}s" ./internal/fed/
go test -run '^$' -fuzz 'FuzzRelayFrame$' -fuzztime "${FUZZ_SMOKE}s" ./internal/fed/
go test -run '^$' -fuzz 'FuzzAdamStepMatchesReference$' -fuzztime "${FUZZ_SMOKE}s" ./internal/nn/
# Each input is a whole operation trace or a net's worth of raw bit
# patterns, so minimising a new one under the default 60s budget would
# stall a short run; 200 tries is plenty.
go test -run '^$' -fuzz 'FuzzForwardMatchesReference$' -fuzztime "${FUZZ_SMOKE}s" -fuzzminimizetime 200x ./internal/nn/
go test -run '^$' -fuzz 'FuzzAccumMatchesReference$' -fuzztime "${FUZZ_SMOKE}s" -fuzzminimizetime 200x ./internal/nn/
go test -run '^$' -fuzz 'FuzzParamSumMatchesAccum$' -fuzztime "${FUZZ_SMOKE}s" -fuzzminimizetime 200x ./internal/nn/
go test -run '^$' -fuzz 'FuzzBatchKernelsMatchGeneric$' -fuzztime "${FUZZ_SMOKE}s" -fuzzminimizetime 200x ./internal/nn/

# Benchmarks are not compiled by `go test` unless they run; one iteration of
# each keeps the bench suite from bit-rotting.
echo "==> go test -bench . -benchtime 1x (bench compile smoke)"
go test -run '^$' -bench . -benchtime 1x ./... > /dev/null

echo "==> make determinism (bit-identity and replay tests, -count=2)"
make determinism

echo "==> fedpower tree -parallel 4 (multi-worker fleet smoke)"
go run ./cmd/fedpower tree -topology 1x48 -parallel 4 -rounds 2 -codec dense

# A 386 test binary runs natively only on an amd64 Linux host, which is
# also the only host where the portable kernels are not already the ones
# every step above ran.
if [ "$(go env GOHOSTOS)/$(go env GOHOSTARCH)" = linux/amd64 ]; then
  echo "==> make portable (the Go kernels under GOARCH=386)"
  make portable
fi

echo "==> all checks passed"
