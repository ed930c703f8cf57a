#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it with the arguments given. Everything the build and the run write
# (Go build cache, binary, datadirs) stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME: the go command keeps telemetry counters under the user
# configuration directory, which is outside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$here/_src" && go build -o "$build/ocsml-bench" .)
exec "$build/ocsml-bench" -workdir "$build/data" -benchmark "$root/BENCHMARK.json" "$@"
