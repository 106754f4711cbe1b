#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark command from
# source inside the checkout and runs it with the caller's arguments.
# Everything the Go toolchain writes (build cache, temp files, the
# binary) stays under .bench_build/ in the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$out/dnnd-benchmark" .
cd "$root"
exec "$out/dnnd-benchmark" "$@"
