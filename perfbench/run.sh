#!/usr/bin/env bash
# Builds emsim and the perfbench program from this checkout, then runs one
# benchmark invocation. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload em3d --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) inside the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

# Keep the Go toolchain's caches and settings inside the checkout, and
# never reach for the network.
export GOCACHE="$build/go/cache" GOMODCACHE="$build/go/mod" GOPATH="$build/go/path" \
	XDG_CONFIG_HOME="$build/go/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	GOSUMDB=off GOWORK=off

go build -o "$build/emsim" ./cmd/emsim
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -emsim "$build/emsim" -out "$build/perfbench-out" "$@"
