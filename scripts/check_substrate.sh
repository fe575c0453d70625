#!/bin/sh
# check_substrate.sh — the per-run substrate is written once: a timer is a
# sim.Timer, a free list a sim.FreeList. Fail if either hand-written idiom
# grows back in a non-test .go file outside internal/sim (where Timer and
# FreeList live) and bench/ (which times the engine's own calls):
#
#   Reschedule(      reviving a kept *sim.Event in place
#   [n-1] = nil      popping the last element of a hand-rolled free list
#
# internal/routing/etx.go is exempt from the second: its pq is
# container/heap's Pop, a priority queue, not a free list.
#
# Usage: sh scripts/check_substrate.sh   (from the repo root)
set -eu

files=$(find . -name '*.go' ! -name '*_test.go' \
    ! -path './internal/sim/*' ! -path './bench/*' ! -path './.bench_build/*')
fail=0
if grep -n 'Reschedule(' $files; then
    echo "check_substrate: Reschedule( outside internal/sim — use a sim.Timer" >&2
    fail=1
fi
pops=$(echo "$files" | grep -v '^./internal/routing/etx.go$')
if grep -nE '\[[A-Za-z]+ ?- ?1\] = nil' $pops; then
    echo "check_substrate: hand-written free-list pop — use a sim.FreeList" >&2
    fail=1
fi
exit $fail
