#!/usr/bin/env bash
# Builds the colord benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash colordbench/run.sh --workload hot-read --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout's root. Every file the build and the run write
# (Go build cache, binary, write-ahead logs, span files) stays under
# .bench_build in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/colordbench" && go build -o "$out/colordbench" .) >&2
exec "$out/colordbench" -workdir "$out" "$@"
