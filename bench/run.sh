#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it with the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload campaign-dynmcb8 --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the module cache, the go command's own state and the
# binary all stay under .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C bench build -o "$out/dfrs-bench" .
exec "$out/dfrs-bench" "$@"
