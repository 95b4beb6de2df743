#!/usr/bin/env bash
# Builds the serving benchmark from the sources of the checkout it is
# run in, then runs it with the given arguments:
#
#   bash servebench/run.sh --workload read-unique --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# program logs and span dumps all stay under .bench_build/ there.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f servebench/go.mod ]]; then
	echo "servebench: run from the root of an authteam checkout (go.mod, internal/ and servebench/ must be present)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/home"
# Keep the toolchain's caches and config inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOENV=off
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
