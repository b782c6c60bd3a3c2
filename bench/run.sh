#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write stays under .bench_build/ in the
# current directory (the root of a checkout): the Go build cache, the go
# command's own configuration, the binary, and the scratch directory for
# checkpoint files. No process outlives the script.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config/go/telemetry"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
# With telemetry on (the default, "local"), the go command starts a detached
# child of itself whenever its configuration directory has no upload token,
# which a fresh checkout never has; that child outlives the build. The mode
# file is the only switch: GOTELEMETRY in the environment is not read.
echo off > "$out/config/go/telemetry/mode"
export GOTOOLCHAIN=local
go build -o "$out/oddsbench" ./bench
exec "$out/oddsbench" "$@"
