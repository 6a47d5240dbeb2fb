#!/usr/bin/env bash
# Builds the ledger from this checkout's source and runs it with the given
# flags. Run from the root of a checkout:
#
#   bash benchmarks/run.sh --workload whw_buy --seed 7 --seconds 20 --trace 0
#
# Everything it writes (build cache, binary, scratch stores) goes under
# .bench_build/ in the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$build/ledger" ./benchmarks/ledger
exec "$build/ledger" -workdir "$build/ledger-work" "$@"
