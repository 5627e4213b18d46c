#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Everything the Go toolchain writes (build cache, temp
# files, the binary) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in the
# checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
