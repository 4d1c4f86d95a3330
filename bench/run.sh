#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every byte the
# build writes (Go build cache, temp files, the binary) under
# .bench_build/ in the checkout. Arguments go to the benchmark
# unchanged; see bench/README.md.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$bench" -o "$build/nezha-benchmark" .
cd "$root"
exec "$build/nezha-benchmark" "$@"
