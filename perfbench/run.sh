#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload crowd --seed 77 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout: the
# Go build cache, temporary files and the binary under .bench_build, run
# details, spans and WAL data under .bench_out. The build never touches
# the network; without the repository's sources around perfbench/ it
# fails, and so does the run.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
# The go command keeps its settings and telemetry under the user's
# config directory; point that into the build directory too.
(cd "$bench" && HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$root/.bench_out" "$@"
