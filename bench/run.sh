#!/usr/bin/env bash
# Builds the benchmark command from source and runs it with the given
# flags, from the repository root:
#
#   bash bench/run.sh --workload window_replan --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build/ in the repository root, and the build never reaches
# the network: the benchmark module needs nothing but the repository.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/prospector-bench" .)
cd "$root"
exec "$out/prospector-bench" "$@"
