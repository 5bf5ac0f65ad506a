#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the harness from source into
# .bench_build/ at the repository root (the harness builds besteffsd there
# too) and runs it with the arguments given. The Go build cache, temp files
# and the toolchain's own counters (XDG_CONFIG_HOME) are kept inside
# .bench_build/ so that nothing is written outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/besteffs-bench" .
cd "$root"
exec "$build/besteffs-bench" "$@"
