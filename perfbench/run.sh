#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout, for example:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and every file the benchmark writes stay
# under .bench_build in the checkout (or under $CARGO_TARGET_DIR when it
# is set), so the toolchain writes nothing to the user's caches.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off GOTELEMETRY=off
go -C "$here" build -o "$out/perfbench" . >&2

export CARGO_TARGET_DIR=$out
exec "$out/perfbench" "$@"
