#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Run it from
# the checkout root; arguments pass through to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload serve-http --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, model
# files, span traces) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
