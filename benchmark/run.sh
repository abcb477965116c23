#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given. Everything the build writes (binary, Go build cache)
# stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/gompi-benchmark" ./benchmark
exec "$build/gompi-benchmark" "$@"
