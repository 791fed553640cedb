#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload profile --seed 1 --seconds 10 --trace 0
#
# Build outputs (the Go build cache and the binary) go to .bench_build and
# run outputs (spans, durable stores) to .bench_out, both in the current
# directory.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
