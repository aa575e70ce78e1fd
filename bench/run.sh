#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it with
# the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload query_cold --seed 1 --seconds 25 --trace 0
#
# Every build artefact (Go build and module caches, the go command's
# telemetry and config, temporary files, the binary) and every fixture the
# benchmark writes stays in .bench_build/ under the current directory, and
# nothing is downloaded: the benchmark module depends only on the
# repository's own module one directory up, so the build fails — and this
# script exits non-zero — when the repository sources are not there.
set -euo pipefail

src=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local

go -C "$src" build -o "$build/ugs-loadbench" .
exec "$build/ugs-loadbench" -workdir "$build" "$@"
