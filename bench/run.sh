#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# like the Go build cache and temp files it uses) and runs it with the
# given arguments. Run from the root of a checkout:
#
#   bash bench/run.sh --workload disjoint_reserve --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C "$here" -o "$out/flecc-bench" .
cd "$root"
exec "$out/flecc-bench" "$@"
