#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of the
# repository; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload api-cold --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files all stay in
# .bench_build/ at the root of the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The build must finish before the benchmark runs; its output goes to
# stderr so the last line of stdout stays the result.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
