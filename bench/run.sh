#!/usr/bin/env bash
# Builds the bench binary from source into .bench_build/ and runs it with the
# arguments given. Everything the build touches (Go build cache, temp files,
# the binary) stays inside the checkout; run from the repository root.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp
export GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=

go build -C "$root/bench" -o "$out/godm-bench" .
exec "$out/godm-bench" "$@"
