#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload survey --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay in
# .bench_build/ under the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
