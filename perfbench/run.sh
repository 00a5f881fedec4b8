#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload classify-sentence --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
