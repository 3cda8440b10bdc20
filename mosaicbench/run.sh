#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash mosaicbench/run.sh --workload core-sgemm --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (Go's build cache, temp files, job stores, spans).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/home/go" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$root/mosaicbench" && go build -o "$out/mosaicbench" .)
cd "$root"
exec "$out/mosaicbench" "$@"
