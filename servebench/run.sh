#!/usr/bin/env bash
# Builds the serving-stack benchmark from the checkout it sits in and runs
# it with the given flags, e.g.
#
#   bash servebench/run.sh --workload fig4-batch --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# span dumps go under $CARGO_TARGET_DIR (default .bench_build), so nothing
# is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
  /*) ;;
  *) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

# XDG_CONFIG_HOME keeps the go command's own config and telemetry files in
# the build directory too.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
  GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
go -C "$root/servebench" build -o "$out/servebench" .
exec "$out/servebench" --out "$out" "$@"
