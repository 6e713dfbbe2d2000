#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given, from
# the root of the checkout. Everything the build leaves behind — the binary,
# Go's build cache — stays under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/benchmarks" .)
cd "$root"
exec "$build/benchmarks" "$@"
