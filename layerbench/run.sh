#!/usr/bin/env bash
# Build the layer benchmark from this checkout's source and run it.
# Run from the repository root:
#
#   bash layerbench/run.sh --workload durable-reuse --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, and the durable servers' data stay
# under .bench_build/; result records and span files go to .bench_out/.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"

export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=-buildvcs=false
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" GOMODCACHE="${build}/gopath/pkg/mod"

(cd "${root}/layerbench" && go build -o "${build}/layerbench" .)
exec "${build}/layerbench" "$@"
