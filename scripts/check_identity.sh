#!/bin/sh
# check_identity.sh — the byte-identity bar, mechanical: run
# `cmd/experiments -quick -ablations` four ways (text and -json, default and
# -prunesigma 0, about 15 s each) and compare each output's sha256 with the
# value committed below. A refactor must leave all four unchanged; a change
# that moves simulation results on purpose updates the values in the same
# commit and says why.
#
# The values are linux/amd64 results (recorded with go1.24): other targets
# may fuse floating-point operations differently, so the script skips there.
#
# Usage: sh scripts/check_identity.sh   (from the repo root)
set -eu

if [ "$(go env GOOS)/$(go env GOARCH)" != "linux/amd64" ]; then
    echo "check_identity: skipped on $(go env GOOS)/$(go env GOARCH) (hashes are linux/amd64 values)"
    exit 0
fi

bin="$(mktemp)"
trap 'rm -f "$bin"' EXIT
go build -o "$bin" ./cmd/experiments

fail=0
check() { # check <expected sha256> <flags...>
    want="$1"
    shift
    got="$("$bin" -quick -ablations "$@" 2>/dev/null | sha256sum | cut -d' ' -f1)"
    if [ "$got" = "$want" ]; then
        echo "ok       experiments -quick -ablations $*"
    else
        echo "CHANGED  experiments -quick -ablations $*: got $got, want $want" >&2
        fail=1
    fi
}

check b2af42b3a6130756ddd31c0811c098953cb15ee7c180d8d1eef2e21190841d86
check 37e182e41925a41022d03354a82d87740e34672f34c0bc3ddb2090921218fb36 -prunesigma 0
check 1b8d23e9deb996f0d90d9070ffe0e6e05d7a3b0c255dc26f0d3999b60b661852 -json
check 34efc4feeb24d5824a3c34e66ea62358a0e4e8f1b4d77de6eea53d20bbee76f8 -json -prunesigma 0
exit $fail
