#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it from there; every argument is passed through.
#
#   bash bench/run.sh                                  # 5 interleaved runs per workload
#   bash bench/run.sh --workload fleet-place --seed 7 --seconds 20 --trace 0
#   bash bench/run.sh compare OLD.json NEW.json
#
# The Go build cache lives under .bench_build/ too, so the benchmark writes
# nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/bench" && go build -o "$out/pasched-bench" .)
cd "$root"
exec "$out/pasched-bench" "$@"
