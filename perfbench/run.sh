#!/usr/bin/env bash
# Builds the benchmark from source and runs it; all arguments pass through:
#
#   bash perfbench/run.sh --workload library-fresh --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the toolchain's own state stay in
# .bench_build/ at the repository root, so a run writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
(
	cd "$root/perfbench"
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
		GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		go build -o "$build/perfbench" .
) >&2
exec "$build/perfbench" "$@"
