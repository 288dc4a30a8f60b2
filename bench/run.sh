#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the root of
# the repository:
#
#   bash bench/run.sh --workload exact-augmented --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes to .bench_build/ under the
# current directory (Go build cache, binaries, scratch stores, traces,
# result documents), so nothing outside the checkout is touched.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/bench" build -o "$work/bench" .
exec "$work/bench" -root "$root" -work "$work" "$@"
