#!/bin/sh
# Builds the benchmark into the working tree's ignored build directory and
# runs it with the arguments given: `sh bench/run.sh` from the repository
# root. Everything the build writes — Go's build and module caches, the
# binary — stays under .bench_build, so a run touches nothing outside its
# checkout. With warm caches the build step is a sub-second no-op.
set -e
root=$(pwd)
here=$(dirname "$0")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
commit=$(git -C "$here" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
go build -C "$here" -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/ripple-bench" .
exec "$build/ripple-bench" "$@"
