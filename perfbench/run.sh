#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through:
#
#   bash perfbench/run.sh --workload fleet-steady --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the toolchain's own state (HOME
# and the XDG directories point there too) and the binary stay under
# .bench_build at the repository root; nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOPATH="$build/gopath" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
