#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --workload twin-hits --runs 5
#
# The Go build and module caches live under .bench_build/ too, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
