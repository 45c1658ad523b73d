#!/usr/bin/env bash
# Builds the reefperf benchmark from this checkout's sources and runs
# it; every file the build and the run write stays under .bench_build/.
#
#   bash reefperf/run.sh --workload stream-reliable --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOENV=off TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
(cd "$root/reefperf" && go build -o "$build/reefperf" .)
cd "$root"
exec "$build/reefperf" --data "$build/reefperf-data" "$@"
