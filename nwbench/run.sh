#!/usr/bin/env bash
# Builds the NewsWire benchmark from the checkout it sits in and runs it.
# Usage, from the repository root:
#   bash nwbench/run.sh --workload live-fanout --seed 1 --seconds 20 --trace 0
# Build products and the Go build cache stay under .bench_build/ so the
# run writes nothing outside the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/nwbench" && go build -o "$out/nwbench" .)
exec "$out/nwbench" "$@"
