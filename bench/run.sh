#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs one workload:
#
#   bash bench/run.sh --workload cold-cells --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root (Go's build cache included), and nothing is fetched: the
# benchmark module needs only the repository and the Go toolchain.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/bench" && go build -buildvcs=false -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
