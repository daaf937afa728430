#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash fleetbench/run.sh --workload probe --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache, go-command config (XDG_CONFIG_HOME,
# where the toolchain keeps its local telemetry counters) and binary live
# in .bench_build/ at the root, so a run writes nothing outside the
# checkout. The build fails, and so does this script, when the
# repository's sources are not beside fleetbench/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/fleetbench" && go build -o "$build/fleetbench" .)
exec "$build/fleetbench" --results "$root/fleetbench/results" "$@"
