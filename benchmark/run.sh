#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the harness from the checkout
# and runs it, keeping every file the Go toolchain writes (build cache,
# temporary files, telemetry) under .bench_build/ inside the checkout.
# Developers can equally run `go run ./benchmark`; this wrapper only adds
# the containment.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# Telemetry off before the first go command: in any other mode the go command
# detaches a "go ** telemetry **" child that outlives it, and a run must leave
# no process behind (also when it fails because the program is not there).
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" -out "$build/out" "$@"
