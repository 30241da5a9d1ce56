#!/usr/bin/env bash
# Builds the csecg stream benchmark from this checkout's sources and runs
# it with the given arguments, for example:
#
#   bash _perfbench/run.sh --workload stream-cr50 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the span dumps and the run digests all
# stay under .bench_build/perfbench in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -state "$out" "$@"
