#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the Go toolchain writes (build cache, temporary files, its
# own config) is kept under .bench_build at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
bin="$build/uobench"
cd "$here"
# Rebuild only when a source file is newer than the binary: go build's
# own up-to-date check costs about half a second on every run.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	go build -o "$bin" . >&2
fi
exec "$bin" "$@"
