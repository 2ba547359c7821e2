#!/usr/bin/env bash
# Builds the benchmark program from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload parse-cold --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Build products, the Go build cache
# and the program's own outputs (span dumps, exact-count records) all stay
# under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
