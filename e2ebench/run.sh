#!/usr/bin/env bash
# Builds the e2ebench harness from this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload hit-gateway --seed 1 --seconds 25 --trace 0
#
# The Go build cache, module cache, configuration directory (where the
# go command keeps telemetry counters), temporary build files and the
# binary all live in .bench_build/ under the current directory, so the
# build reads and writes nothing outside the checkout. Build output goes
# to stderr; stdout carries only the harness's report, whose last line
# is the JSON result.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/config" "$out/tmp"
# The module has no dependencies outside this repository, so the build
# never needs the network: GOPROXY=off and GOTOOLCHAIN=local make sure
# it never tries.
(
	cd e2ebench
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
		GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
	go build -o "$out/e2ebench" .
) >&2
exec "$out/e2ebench" "$@"
