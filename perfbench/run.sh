#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. `bash perfbench/run.sh --workload des_paper --seed 1 --seconds 30 --trace 0`.
# Run from the repository root. Everything the build and the run write
# (Go build cache, the toolchain's telemetry counters, binary, temporary
# files, traces) stays in .bench_build/ under the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
