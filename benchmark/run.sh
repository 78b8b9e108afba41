#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload fuzz-sfix --seed 42 --seconds 10 --trace 0
#
# Everything the build writes (the binary, the Go build cache, the Go
# tool's home directory) goes under $CARGO_TARGET_DIR, .bench_build by
# default, inside the working directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/home"

(
	cd "$(dirname "$0")"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
		GOCACHE="$out/go-build" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= \
		go build -o "$out/krx-benchmark" .
)
exec "$out/krx-benchmark" "$@"
