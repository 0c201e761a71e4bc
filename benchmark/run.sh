#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the Go
# toolchain writes (build cache, temporary files, the binary) under
# .bench_build/ at the repository root. BENCHMARK.json's command; takes
# the same flags as `go run -C benchmark .`.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$root"
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
