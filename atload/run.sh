#!/usr/bin/env bash
# The command BENCHMARK.json names: builds atload with every Go cache inside
# the checkout (.bench_build/), then runs it with the arguments given.
# atload itself builds cmd/atserve into the same directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/atload" .)
exec "$build/atload" -root "$root" "$@"
