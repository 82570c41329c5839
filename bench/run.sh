#!/bin/sh
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#	sh bench/run.sh --workload ingest-repeat --seed 1 --seconds 10 --trace 0
#
# It is `go run ./bench` with the Go build cache moved inside the checkout, so
# that a run reads and writes nothing outside it. The first run in a fresh
# checkout therefore compiles the standard library too (about half a minute).
set -e
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
exec go run ./bench "$@"
