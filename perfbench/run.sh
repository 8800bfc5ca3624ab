#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-feedback --seed 1 --seconds 15 --trace 0
#
# Every build artifact, the Go build cache and the benchmark's scratch files
# stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The go command keeps its settings and telemetry under the user config dir.
export XDG_CONFIG_HOME="$build/config"
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -scratch "$build" "$@"
