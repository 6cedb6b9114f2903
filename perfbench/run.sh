#!/usr/bin/env bash
# Builds the benchmark and ptucker-serve from the checkout it is run
# in, then runs one workload:
#
#   bash perfbench/run.sh --workload fit-plain --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds, generates or
# writes stays under .bench_build/ in that root, and the build never goes
# to the network: the module has no dependencies outside this repository.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
go build -o "$build/bin/ptucker-serve" ./cmd/ptucker-serve

exec "$build/bin/perfbench" -build "$build" "$@"
