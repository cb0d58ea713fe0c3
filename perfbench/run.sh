#!/usr/bin/env bash
# Builds the rack benchmark from the checkout's sources and runs it.
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload kv-read-zipf --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay inside the checkout, under
# .bench_build/. Without the repository's sources next to perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local
export GOPATH="$out/gopath"
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
