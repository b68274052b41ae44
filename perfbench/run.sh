#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload domain-mine --seed 1 --seconds 20 --trace 0
#
# Build state (Go cache, temporary files, the binary) and reports stay in
# .bench_build/ under the root; nothing is fetched.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ] || [ ! -d internal ]; then
	echo "perfbench: run from the repository root; the oassis sources are not here" >&2
	exit 2
fi
build="$(pwd)/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS= GOPROXY=off CGO_ENABLED=0
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
