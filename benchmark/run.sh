#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload batch --seed 1 --seconds 25 --trace 0
#   bash benchmark/run.sh --selftest
#
# Every build artifact, cache and scratch file lands under .bench_build/
# in the repository root, so the run reads and writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off

(cd "$root/benchmark" && go build -o "$out/fdbench" .) >&2
cd "$root"
exec "$out/fdbench" "$@"
