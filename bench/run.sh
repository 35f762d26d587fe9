#!/usr/bin/env bash
# Entry point named by BENCHMARK.json:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds the benchmark (package main in this directory, its own module) and
# runs it from the repository root. Everything the build and the run write
# -- Go's build cache included -- stays under <root>/.bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/sbdms-bench" .)
cd "$root"
exec "$build/sbdms-bench" "$@"
