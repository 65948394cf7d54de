# Convenience targets; `make check` is the same gate CI runs.

.PHONY: check build vet lint lint-sarif bench bench-lint test race determinism portable fuzz

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

# Benchmarks the analyzer suite and its three interprocedural passes
# (parse/type-check excluded). Nothing compares these numbers: the gate on
# analyzer runtime is FEDLINT_BUDGET, the wall-clock budget scripts/check.sh
# puts on the fedlint step.
bench-lint:
	go test -bench 'DefaultSuite|PrivacyTaint|WireBound|EffectAnalysis' -benchmem -run XXX ./internal/lint/

# The speed gate: fedbench (bench/) on the last commit and on the working
# tree, alternating, then `-compare` against the bounds of BENCHMARK.json —
# exit 1 when the tree is slower. No stored numbers, no budget to set; for
# another base run scripts/benchab.sh <rev>. That the hot paths allocate
# nothing is not measured here but asserted by the AllocFree /
# AllocationFree tests in `make test`.
bench:
	./scripts/benchab.sh HEAD

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

# The portable kernels on an amd64 host. On amd64 the batched update runs
# SSE2 assembly (internal/nn/kernels_amd64.s); GOARCH=386 builds the same
# packages with the Go kernels every other GOARCH runs (kernels.go), and
# the host executes them natively. 386 does not fuse multiply-adds, so
# this holds the generic code to the goldens the amd64 build pins. It runs
# where the host can execute 386 binaries (linux/amd64). Whether arm64's
# fused multiply-adds keep the bits is a separate question: ROADMAP 2(a).
portable:
	GOARCH=386 go test ./internal/nn ./internal/core
	GOARCH=386 go test -run 'BatchBitIdentical|AgedControllerBitIdentical' .

# Extended fuzzing of the federation wire format, of the exact accumulator
# against its full-width reference, of the float64-lead sum against the
# plain accumulator vector, of the single-sample forward pass against the
# one-unit loop and of the batched update against the portable kernels
# (seed corpora always run as part of `make test`).
fuzz:
	go test -fuzz=FuzzWireRoundTrip -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzReadMessage -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzFaultyReadMessage -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzDeltaRoundTrip -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzQuantRoundTrip -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzRelayFrame -fuzztime=30s ./internal/fed/
	go test -fuzz=FuzzAccumMatchesReference -fuzztime=30s -fuzzminimizetime=200x ./internal/nn/
	go test -fuzz=FuzzParamSumMatchesAccum -fuzztime=30s -fuzzminimizetime=200x ./internal/nn/
	go test -fuzz=FuzzForwardMatchesReference -fuzztime=30s -fuzzminimizetime=200x ./internal/nn/
	go test -fuzz=FuzzBatchKernelsMatchGeneric -fuzztime=30s -fuzzminimizetime=200x ./internal/nn/
