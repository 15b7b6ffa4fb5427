#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from the
# repository root with the given flags, e.g.
#   bash benchmark/run.sh --workload town --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh --workload all > all.json
# Everything the build writes (build cache, temporary files, toolchain
# bookkeeping) is pointed inside .bench_build/ too, so a run reads and
# writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C benchmark -o "$out/servo-benchmark" .
exec "$out/servo-benchmark" "$@"
