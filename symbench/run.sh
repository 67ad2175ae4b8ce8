#!/usr/bin/env bash
# Builds symbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash symbench/run.sh --workload hepnos_load --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binary, span files) goes
# under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off
(cd "$root/symbench" && go build -o "$out/symbench" .)
exec "$out/symbench" -out "$out" "$@"
