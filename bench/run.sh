#!/usr/bin/env bash
# Builds the fabric benchmark from this checkout's sources and runs it with
# the given arguments, from the checkout root:
#
#   bash bench/run.sh --workload fabric-detect --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (binary, Go build cache,
# toolchain state, span files) stays under .bench_build in the checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/fabricbench" .)
cd "$root"
exec "$out/fabricbench" "$@"
