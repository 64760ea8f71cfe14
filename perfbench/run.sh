#!/usr/bin/env bash
# Builds the benchmark from the checkout in the working directory and runs
# it with the given flags (see main.go for the flags and the output).
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# The go command keeps its build cache, module path and telemetry counters
# under the config and cache locations; point them all inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -root "$root" "$@"
