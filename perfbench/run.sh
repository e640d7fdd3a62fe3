#!/usr/bin/env bash
# Builds the benchmark and the cdcsd daemon from this checkout's source,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload synth-wan --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --selfcheck
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, the daemon's data
# directories, diagnostics and traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -buildvcs=false -o "$out/bin/cdcsd" ./cmd/cdcsd
(cd perfbench && go build -buildvcs=false -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --out "$out" --cdcsd "$out/bin/cdcsd" "$@"
