#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload train-mesh-spatial --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, temporary files, config, binary)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
