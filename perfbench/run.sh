#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#
#   bash perfbench/run.sh --workload table2 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, scratch stores and the
# run records.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOTELEMETRY=off
go build -C "$root/perfbench" -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" -root "$root" "$@"
