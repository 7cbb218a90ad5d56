#!/usr/bin/env bash
# Builds gridstratd and the benchmark driver from this checkout, then
# runs the driver with the given arguments. Run from the repository
# root:
#
#   bash gridbench/run.sh --workload plan_sweep --seed 1 --seconds 20 --trace 0
#
# All build output, the Go build cache and run scratch space stay under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
# A run killed outright cannot remove its WAL directories; start clean.
rm -rf "$out/tmp"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOENV=off GOPROXY=off CGO_ENABLED=0

# Build output goes to stderr: stdout carries only the benchmark report.
(cd "$root" && go build -o "$out/bin/gridstratd" ./cmd/gridstratd) >&2
(cd "$root/gridbench" && go build -o "$out/bin/gridbench" .) >&2

exec "$out/bin/gridbench" --daemon "$out/bin/gridstratd" --work "$out/tmp" "$@"
