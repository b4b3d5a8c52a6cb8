#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments.  The Go build cache, the temporary build
# directory, GOPATH, the go command's own configuration and counters
# (XDG_CONFIG_HOME) and the binary all live under .bench_build, so
# nothing outside the checkout is written.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/hyades-benchmark" ./benchmark
exec "$build/hyades-benchmark" "$@"
