#!/usr/bin/env bash
# Builds the layered fleet benchmark from source and runs one workload.
# Run it from the repository root:
#
#   bash layerbench/run.sh --workload saps-train --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the binary)
# and the traced run's span files stay under .bench_build/ in the current
# directory. Without the repository's Go module next to layerbench/ the
# build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

(
	cd "$root/layerbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off \
		go build -o "$out/layerbench" .
)
exec "$out/layerbench" "$@"
