#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current
# checkout and runs it there; every argument goes to the binary.
# Run from the repository root: bash bench/run.sh [flags]
set -euo pipefail
root=$PWD
out="$root/.bench_build"
mkdir -p "$out"
BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
# Everything the go command writes stays inside the checkout (build
# cache, module cache, telemetry counters), and it never fetches a
# toolchain or reads the user's go env file.
GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -C "$root/bench" -o "$out/sfbench" .
exec "$out/sfbench" "$@"
