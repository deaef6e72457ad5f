#!/usr/bin/env bash
# Builds the served-scan benchmark from source and runs it. Run it from the
# root of the repository (or of a checkout of it):
#
#   bash servebench/run.sh --workload bulk-move --seed 1 --seconds 30 --trace 0
#
# Every build and run output stays under the directory CARGO_TARGET_DIR
# names (default .bench_build): the Go build and module caches, the binary,
# the spans files and the run results. The build uses the local toolchain
# only and never touches the network.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/go-tmp"

export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path GOTMPDIR=$out/go-tmp

(cd servebench && go build -o "$out/servebench-bin" .)
exec "$out/servebench-bin" "$@"
