#!/usr/bin/env bash
# The benchmark driver's entry point: build the benchmark from source
# inside the checkout (Go's build cache included, so nothing is read or
# written outside it) and run it with the driver's arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
mkdir -p "$build"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
