#!/bin/sh
# check_reach.sh — every func and method of non-test Go under internal/ and
# cmd/ is linked into a shipped binary, or scripts/reach_allow.txt says why
# not. The linker drops what nothing calls, so a function missing from all of
# cmd/experiments, cmd/ripplesim, cmd/rippletrace and bench is code that only
# tests run: delete it, or move it into its package's export_test.go if only
# that package's tests use it. The allow-list is for a test oracle used from
# another package and for a function a named ROADMAP item will call, one line
# each with its reason; a line whose function is linked or gone also fails.
#
# The binaries are built with inlining off, so a function inlined at every
# call keeps a symbol; `go tool nm` lists them, and scripts/reach (a go/ast
# lister, tested by its own package) compares. internal/golden is a
# test-helper package and is left out, as is the root package, whose exported
# API is the product (its Examples hold it). Under 2 s on two cores with a
# warm build cache.
#
# Usage: sh scripts/check_reach.sh   (from the repo root)
set -eu

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

go build -gcflags=all=-l -o "$out/" ./cmd/experiments ./cmd/ripplesim ./cmd/rippletrace
go build -C bench -gcflags=all=-l -o "$out/" .
set --
for bin in experiments ripplesim rippletrace bench; do
    go tool nm "$out/$bin" > "$out/$bin.nm"
    pkg=ripple/cmd/$bin
    [ "$bin" = bench ] && pkg=ripple/bench
    set -- "$@" "$pkg=$out/$bin.nm"
done
go run ./scripts/reach scripts/reach_allow.txt "$@"
