#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash perfbench/run.sh --workload intra-ring --seed 1 --seconds 8 --trace 0
# Run from the repository root. Every build product, the Go build cache
# and the trace files stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/home"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out
export HOME=$out/home XDG_CONFIG_HOME=$out/home GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
