#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. All build
# state (Go build cache, temporary files, the binary) stays under
# .bench_build/ in the directory it is started from, the repository root.
#
#   bash perfbench/run.sh --workload ops-coldshape --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
