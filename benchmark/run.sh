#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from this checkout's
# source and run it with the arguments given.
#
# Everything the build writes stays inside the checkout, under
# .bench_build/: the binary, Go's build cache and GOPATH, its temporary
# files and the toolchain's own counters (which go to the user config
# directory). Without the repo's go.mod and internal/ packages the build
# fails and the script exits non-zero before printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
