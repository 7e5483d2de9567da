#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it runs in, then runs
# it with the given arguments:
#
#   bash perfbench/run.sh --workload analytics --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root.  The binary, the Go build cache and the
# go command's own state stay under .bench_build/ there; nothing is
# fetched over the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
