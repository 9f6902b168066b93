#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build outputs and the Go build cache stay under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
