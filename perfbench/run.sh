#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload warm-query --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root. Without the repository beside it the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters,
# go env) under .bench_build too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
  XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go -C perfbench build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" "$@"
