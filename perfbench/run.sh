#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload knn-city --seed 1 --seconds 36 --trace 0
#
# Everything the build writes (the Go build cache, temporary files, the
# toolchain's local telemetry, the binary) stays under .bench_build/.
set -euo pipefail
src=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
bin="$out/perfbench"
(cd "$src" && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
