#!/bin/sh
# Entry point of BENCHMARK.json: builds the benchmark from source inside the
# checkout (binary, build cache and the go command's own state all under
# .bench_build, nothing outside the checkout is written) and runs it with
# the given arguments. Run it from the root of the checkout:
#
#   sh bench/run.sh --workload fleet_flat --seed 1 --seconds 10 --trace 0
#
# Without the rest of the module there is nothing to build, and it exits
# non-zero before printing a result.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
# With a fresh configuration directory the go command would start its
# telemetry sidecar, a detached process that outlives the build. Switch
# telemetry off there first, so nothing is left running after a run.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/fedbench" ./bench
exec "$build/fedbench" "$@"
