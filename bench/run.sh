#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout: bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Everything the build writes stays inside the checkout (.bench_build/):
# the binary, the Go build and module caches, the compiler's temporary
# files and the go command's own counters, so a run touches nothing
# outside it. Without the rest of the repository (go.mod, internal/) the
# build fails and the script exits non-zero before anything is run.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/wcbenchmark" .
exec "$build/wcbenchmark" "$@"
