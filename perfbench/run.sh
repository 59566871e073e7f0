#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it.
# Run from the repository root; every flag is passed to the benchmark:
#
#   bash perfbench/run.sh --workload tick-steady --seed 1 --seconds 10 --trace 0
#
# The build and everything the benchmark writes stay under .bench_build in
# the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# The module has no dependencies outside the repository, so the build never
# needs the network: GOPROXY=off makes sure it does not try.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off
(cd perfbench && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
