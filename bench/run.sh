#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given,
# from the root of a checkout. Everything the Go toolchain writes (build
# cache, temporary files, its own configuration) is kept inside the
# checkout, under .bench_build, so a run touches nothing outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	# Checked before the toolchain is started at all: nothing to build here.
	echo "bench/run.sh: $root does not hold the program (no go.mod and internal/); run from the root of a checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

# With a fresh configuration directory the go command's telemetry is in
# mode "local", and the first go command of a day then leaves a detached
# child behind to work on its counter files; it outlives a go command that
# ends at once. Mode "off" (the file `go telemetry off` writes) starts none,
# so the only processes of a run are the build and the benchmark, both waited
# for.
echo off >"$build/config/go/telemetry/mode"

go build -o "$build/mpqbench" ./bench
exec "$build/mpqbench" "$@"
