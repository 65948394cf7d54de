# Convenience targets; `make check` is the same gate CI runs.

.PHONY: check build vet lint lint-sarif bench bench-lint bench-train test race determinism fuzz

check:
	./scripts/check.sh

build:
	go build ./...

vet:
	go vet ./...

# Timed so suite-cost regressions are visible at every invocation; CI
# additionally enforces a hard wall-clock budget (scripts/check.sh).
lint:
	time go run ./cmd/fedlint ./...

# Machine-readable findings for CI artifacts and SARIF viewers.
lint-sarif:
	go run ./cmd/fedlint -sarif ./...

# Benchmarks the analyzer suite (parse/type-check excluded) — the number
# the fedlint wall-clock budget guards.
bench-lint:
	go test -bench 'DefaultSuite|PrivacyTaint|WireBound' -benchmem -run XXX ./internal/lint/

# Hot-path benchmark gate: runs BenchmarkControlStepLatency,
# BenchmarkPolicyUpdate{,Batch}, BenchmarkAdamStep, BenchmarkReplayAdd and the
# BenchmarkWire{Encode,Decode,RoundTrip} wire-path benchmarks with
# -benchmem and -count=3 (gating on the per-benchmark minimum ns/op),
# records BENCH_<date>.json and fails on a >20 % ns/op regression — or any
# allocs/op increase — against the committed BENCH_baseline.json
# (scripts/benchdiff.sh).
bench:
	./scripts/benchdiff.sh

# Training-kernel benchmarks only — the mini-batch policy update on the
# batched kernels (its batch-size cost model), the optimiser step inside it
# on a fresh and on a long-trained optimiser, and the steady-state replay
# ring Add — the quick loop for kernel work, without the regression gate.
bench-train:
	go test -run '^$$' -bench 'BenchmarkPolicyUpdate$$|BenchmarkPolicyUpdateBatch$$|BenchmarkReplayAdd$$|BenchmarkAdamStep$$' -benchmem -count=3 . ./internal/nn

test:
	go test ./...

race:
	go test -race ./...

# Determinism gate — defined here and nowhere else: scripts/check.sh and
# the CI determinism job both call `make determinism`, so adding a test to
# the gate is a one-line edit of DETERMINISM_TESTS. Every matching test runs
# twice in one process (-count=2) and must reproduce itself, and its
# reference run, bit-for-bit:
#
#   Resilience                 fault-injection schedules and zero-fault TCP
#                              federation results replay identically
#   ParallelMatchesSequential  the parallel experiment engine equals
#                              sequential execution at every pool width
#   ParallelAggregation        the server's round workers at widths 1/2/8
#                              per codec, the parallel tree runner and the
#                              TCP tree deployment at Parallelism 4 equal
#                              the sequential runs
#   CodecD{ense,elta}BitIdentical  dense and delta federations agree,
#                              in-process at widths 1 and 8 and over TCP
#   TreeBitIdentical           randomized in-process topologies and 2-/3-level
#                              TCP fleets equal the flat federation
#   BatchBitIdentical          ForwardBatch/BackwardBatch, the batched
#                              controller update and a whole Fig. 3 scenario
#                              equal the scalar kernels
#   AdamBitIdentical           Adam.Step, which skips parameters whose first
#                              moment is stuck in the subnormal range, equals
#                              the plain loop through a moment's whole life
#   AgedControllerBitIdentical a controller trained for 150 000 steps takes
#                              the same actions and ends on the same
#                              parameters as one on the plain loop
DETERMINISM_TESTS := Resilience|ParallelMatchesSequential|ParallelAggregation|CodecDenseBitIdentical|CodecDeltaBitIdentical|TreeBitIdentical|BatchBitIdentical|AdamBitIdentical|AgedControllerBitIdentical
DETERMINISM_PKGS  := ./internal/fed/... ./internal/experiment/... ./internal/nn/... ./internal/core/... .

determinism:
	go test -run '$(DETERMINISM_TESTS)' -count=2 $(DETERMINISM_PKGS)

# Extended fuzzing of the federation wire format (seed corpus always runs
# as part of `make test`).
fuzz:
	go test -fuzz=FuzzWireRoundTrip -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzReadMessage -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzFaultyReadMessage -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzDeltaRoundTrip -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzQuantRoundTrip -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzRelayFrame -fuzztime=30s ./internal/fed/
