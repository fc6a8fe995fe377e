#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build the harness from
# source and run it with the driver's arguments. Everything the build
# and the run leave behind - Go build cache, binary, span traces,
# result sets - stays inside the checkout, under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
go build -o "$build/vichar-bench" ./bench
exec "$build/vichar-bench" "$@"
