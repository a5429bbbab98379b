#!/usr/bin/env bash
# Builds and runs the benchmark. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload analyst --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the generated inputs and the trace files all live under
# .bench_build/ in the checkout; nothing is written anywhere else.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/go-tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=readonly
cd "$here"
exec go run . --root "$root" "$@"
