#!/bin/sh
# layers.sh — where an in-tree benchmark's CPU time goes, layer by layer.
# Runs benchmark BENCH of package PKG alone under -cpuprofile, lists the
# profile's stacks with `go tool pprof -traces`, and prints the layer table
# of scripts/layers: each sample charged to the innermost ripple/internal
# package on its stack (stats, pkt and sim.RNG to their caller), with rows of
# their own for runtime and gc, so the shares sum to 1; it fails if they do
# not, within 1e-9. Further arguments go to `go test`; the benchmark's own
# output line goes to stderr.
#
# Usage: sh scripts/layers.sh BENCH PKG [go test flags]   (from the repo root)
#   e.g. sh scripts/layers.sh BenchmarkCityRun ./internal/network -benchtime 40x
set -eu

[ $# -ge 2 ] || { echo "usage: sh scripts/layers.sh BENCH PKG [go test flags]" >&2; exit 2; }
bench=$1 pkg=$2
shift 2
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

go test -run '^$' -bench "^$bench\$" -cpuprofile "$out/cpu.prof" -o "$out/pkg.test" "$@" "$pkg" > "$out/bench.txt"
grep "^$bench" "$out/bench.txt" >&2
go tool pprof -traces "$out/pkg.test" "$out/cpu.prof" > "$out/traces.txt"
go run ./scripts/layers "$out/traces.txt"
