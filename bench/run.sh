#!/usr/bin/env bash
# Builds the benchmark command from source and runs it with the given
# arguments. Run from the repository root, for example:
#
#   bash bench/run.sh --workload serve-rw --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files) stays
# under .bench_build in the current directory, and no module download is
# attempted. Go telemetry is switched off in that private config dir:
# otherwise the go command forks a detached telemetry process that can
# outlive this script.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home/go/telemetry"
printf 'off\n' >"$build/home/go/telemetry/mode"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
