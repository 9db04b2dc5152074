#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of a checkout:
#
#   bash benchmark/run.sh -workload halo -seed 7 -seconds 15 -trace 0
#
# The binary, the Go build cache and every trace file go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout. Fails without output when the checkout lacks the
# simulator sources.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/benchmark" && go build -o "$out/alpubench" .)
exec "$out/alpubench" -trace-dir "$out/trace" "$@"
