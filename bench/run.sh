#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload alert-storm --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write — the Go build cache, the go
# command's own counters, the binary, the WAL and span temp dirs — goes
# under .bench_build/ in the checkout.
set -euo pipefail
root="$PWD"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its env file and telemetry counters
export CGO_ENABLED=0 GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/condmon-e2e" .) >&2
exec "$build/condmon-e2e" "$@"
