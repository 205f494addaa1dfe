#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload image-exec --seed 1 --seconds 20 --trace 0
#
# The Go build cache and the binary live under .bench_build (or
# $CARGO_TARGET_DIR when set), so the run reads and writes only inside
# the checkout. Without the repository next to perfbench/ the build
# fails and the script exits non-zero before printing a result.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
