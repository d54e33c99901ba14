#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout as `bash bench/run.sh --workload W --seed N --seconds S --trace 0|1`
# (BENCHMARK.json's command). Everything it writes — the Go build cache, the
# binary, journals and traces — lands in .bench_build/ inside the checkout.
# In a directory without the repository's go.mod the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
