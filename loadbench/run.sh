#!/usr/bin/env bash
# Builds the load benchmark from source and runs it with the given
# arguments. Run it from the root of a checkout of the repository:
#
#   bash loadbench/run.sh -workload archive-mix -seed 1 -seconds 10 -trace 0
#
# Everything the build writes (the Go build cache, the binary, traced
# runs' span files) stays under .bench_build in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d loadbench ]]; then
	echo "loadbench: run from the repository root (go.mod and loadbench/ not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
# The toolchain's user config (go env file, telemetry counters) stays in
# the checkout too.
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
export GOFLAGS=-mod=vendor GOTOOLCHAIN=local CGO_ENABLED=0
go build -o "$out/loadbench" ./loadbench
exec "$out/loadbench" "$@"
