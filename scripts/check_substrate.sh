#!/bin/sh
# check_substrate.sh — the per-run substrate is written once: a timer is a
# sim.Timer, a free list a sim.FreeList, and a run is assembled in one place,
# the arena of internal/network. Fail if a hand-written idiom grows back in a
# non-test .go file outside internal/sim (where Timer and FreeList live) and
# bench/ (which times the engine's own calls):
#
#   Reschedule(      reviving a kept *sim.Event in place
#   [n-1] = nil      popping the last element of a hand-rolled free list
#   .At( .After(     scheduling a closure: each call builds a closure and an
#                    Event; a run schedules a pre-bound sim.Action with Do,
#                    a series with DoSeries, or arms a sim.Timer, so that a
#                    warm run allocates nothing but its Result
#
# or if a run's parts are constructed, not initialised in place, anywhere in
# internal/network, internal/forward or internal/core — the arena calls each
# part's Init on the value it keeps; the constructors remain for bench/ and
# the tests — which is how a second, non-arena assembly path would start:
#
#   sim.NewEngine(  radio.NewMediumOn(  forward.NewRouteBook(
#   mac.NewQueue(   mac.NewContender(   &pkt.Pool{
#
# or if a non-test .go file anywhere imports ripple/internal/golden: the pin
# and golden-file support is for tests, and never ships in a binary;
#
# or if a non-test .go file outside cmd/ and bench/ is a package main: a
# program nothing runs is code CI only compiles — a walkthrough of the API
# is an Example in example_test.go, whose output `go test` checks. The two
# exceptions are scripts/reach, the lister check_reach.sh runs in CI, and its
# fixture, and scripts/layers, the profile parser layers.sh runs in CI;
#
# or if a map type appears on the packet path: the non-test files of
# internal/core and internal/forward, internal/radio/medium.go or
# internal/network/run.go. Map lookups there were a sixth of a saturated TCP
# run's samples; per-stream and per-flow state is a slice indexed by
# pkt.Packet.Stream or its flow slot (the route book is one record per flow
# slot), and the other memos — a sender's blacklist, an ExOR station's held
# receptions — are short slices searched linearly. A map that
# grows back there would not change a byte of output, only the profile, so
# no test would notice it.
#
# or if a go statement appears on the per-run path: the non-test files of
# internal/sim, internal/core, internal/mac, internal/forward,
# internal/transport, internal/pkt, internal/radio/medium.go or
# internal/network/run.go. A run is one goroutine — its event order, and so
# its Result, is that of one engine draining one heap. Set-up has one
# concurrent stage, the epoch pipeline of BuildWorld
# (internal/network/epoch.go), which builds immutable worlds whose bytes do
# not depend on it;
#
# or if internal/radio/medium.go schedules an event with .Do(: a
# transmission's tx-done and receptions are the logical events of its two
# cursors (sim.Series, in the engine's series lane), and a per-transmission
# heap event that grows back there would not change a byte of output, only
# the profile.
#
# or if a non-test .go file outside internal/routing and bench/ calls
# routing.NewTable(: that is the all-pairs ETX reference, an N² probe of the
# link model kept for the tests and the benchmark to compare against. Every
# ETX table a program routes on comes from network.LinkTable or a World,
# which build it over the link plan's neighbour graph in O(N·k).
#
# or if a non-test file of internal/radio, set-up included, has a go
# statement, imports sync, or uses sync/atomic for anything but the plans'
# serial counter (rows.go). A link plan's rows are built serially, inside
# whichever epoch stage or pool worker builds the plan; a LinkPlan is
# immutable once built and shared by every run of its World, and a plan
# filled in lazily after it is shared — transmit rows computed on first
# use, say — would need a lock or an atomic. What a run derives from a plan
# is the run's own, in its Medium's row cache.
#
# or if a non-test .go file outside internal/radio and bench/ reads a link
# plan's row as a slice — calls AscNeighbors(, the accessor that handed out
# a row aliasing the plan. A plan stores its rows as delta-encoded bytes
# (internal/radio/rows.go), and other packages read a row through
# LinkPlan.EachAscNeighbor or EachAscNeighborID, so the row format is known
# to one package and can change without touching another.
#
# or if a non-test .go file of the root package (the public API) contains
# nonNegative( or the words "must not be negative": every range rule on a
# Config value lives with the struct it constrains and network.Validate is
# the one gate that calls them; the builders pass what they are given
# through, and the root keeps only the rules on options a kind ignores. A
# range check that grows back in a builder would refuse nothing new, only
# split the rules into two places again, so no test would notice it;
#
# or if a non-test .go file outside bench/ names UnicastMaxAgg or
# NodeMaxAgg or calls DefaultOptions(: the per-frame packet limit is one
# setting, RippleOpts.MaxAgg (a flow's DstMaxAgg lowers its destination's),
# and the zero core.Options is the paper's configuration. A second limit or
# a whole-struct default that grows back would split the setting again, and
# a config that sets one field of it would silently lose the others.
#
# or if a non-test file of internal/dist compares a frame length with
# maxFrame, or writes one with strconv.AppendInt, in more than one place:
# the wire (Conn) and the journal and checkpoint (WAL, scanFrames) read and
# write one frame format through one codec, readFrame and writeFrame in
# protocol.go. A second decoder or encoder that grows back would move no
# byte of output until the two drift apart, so no test would notice it;
#
# or if the root package's Faults, Mobility or Routing declares any field
# but its spec (fault.Spec, network.MobilitySpec, network.RoutingSpec): the
# options set the simulator's fields and a run receives the spec as it is.
# A mirrored private field that grows back would be one more place each
# setting is written down, and one more field-by-field copy to keep in
# step, while every result stayed the same;
#
# or if a non-test .go file outside internal/transport, internal/traffic and
# bench/ calls DefaultTCPConfig(, DefaultVoIPConfig( or DefaultWebConfig(:
# a traffic config's zero field selects the paper's value, filled by the
# config's own Normalize when its transport or source is initialised, and a
# flow's nil config is the zero config. A whole-config default that grows
# back in a caller would write the paper's values down a second time, and
# the field-by-field copy onto it would move no byte of output.
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
if grep -nE '\.(At|After)\(' $files; then
    echo "check_substrate: Engine.At/After outside internal/sim — schedule a pre-bound sim.Action with Do, a series, or a sim.Timer" >&2
    fail=1
fi
if grep -nE '\[[A-Za-z]+ ?- ?1\] = nil' $files; then
    echo "check_substrate: hand-written free-list pop — use a sim.FreeList" >&2
    fail=1
fi
assembly=$(find internal/network internal/forward internal/core -name '*.go' ! -name '*_test.go')
if grep -nE 'sim\.NewEngine\(|radio\.NewMediumOn\(|forward\.NewRouteBook\(|mac\.NewQueue\(|mac\.NewContender\(|&pkt\.Pool\{' $assembly; then
    echo "check_substrate: a run's part constructed outside the arena — Init the arena's own in place" >&2
    fail=1
fi
if grep -ln '"ripple/internal/golden"' $(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*'); then
    echo "check_substrate: internal/golden imported outside a _test.go file — it is test support" >&2
    fail=1
fi
if grep -l '^package main$' $(find . -name '*.go' ! -name '*_test.go' \
        ! -path './cmd/*' ! -path './bench/*' ! -path './.bench_build/*' ! -path './scripts/reach/*' ! -path './scripts/layers/*'); then
    echo "check_substrate: package main outside cmd/ and bench/ — make it an Example" >&2
    fail=1
fi
packetpath="$(find internal/core internal/forward -name '*.go' ! -name '*_test.go') internal/radio/medium.go internal/network/run.go"
if grep -n 'map\[' $packetpath; then
    echo "check_substrate: a map on the packet path — index by stream or flow slot" >&2
    fail=1
fi
if grep -n '\.Do(' internal/radio/medium.go; then
    echo "check_substrate: an engine event scheduled in radio/medium.go — make it a cursor's logical event" >&2
    fail=1
fi
runpath="$(find internal/sim internal/core internal/mac internal/forward internal/transport internal/pkt \
    -name '*.go' ! -name '*_test.go') internal/radio/medium.go internal/network/run.go"
if grep -nE '^[[:space:]]*go[[:space:]]+[A-Za-z_(]' $runpath; then
    echo "check_substrate: a go statement on the per-run path — a run is one goroutine" >&2
    fail=1
fi
etx=$(find . -name '*.go' ! -name '*_test.go' \
    ! -path './internal/routing/*' ! -path './bench/*' ! -path './.bench_build/*')
if grep -n 'routing\.NewTable(' $etx; then
    echo "check_substrate: routing.NewTable( outside internal/routing and bench/ — build the table with network.LinkTable" >&2
    fail=1
fi
radio=$(find internal/radio -name '*.go' ! -name '*_test.go')
if grep -nHE '^[[:space:]]*go[[:space:]]+[A-Za-z_(]' $radio; then
    echo "check_substrate: a go statement in internal/radio — set-up has one concurrent stage, BuildWorld's epoch pipeline" >&2
    fail=1
fi
if grep -nHE '"sync"|sync\.[A-Z]' $radio; then
    echo "check_substrate: sync in internal/radio — a plan is built serially and immutable once built; derive per-run state in the Medium" >&2
    fail=1
fi
if grep -nH 'atomic\.' $radio | grep -v '^internal/radio/rows.go:[0-9]*:var serials atomic\.Uint64$'; then
    echo "check_substrate: sync/atomic in internal/radio beyond the plans' serial counter" >&2
    fail=1
fi
planrow=$(find . -name '*.go' ! -name '*_test.go' \
    ! -path './internal/radio/*' ! -path './bench/*' ! -path './.bench_build/*')
if grep -n 'AscNeighbors(' $planrow; then
    echo "check_substrate: a link plan row read as a slice outside internal/radio — use LinkPlan.EachAscNeighbor or EachAscNeighborID" >&2
    fail=1
fi
if grep -nE 'nonNegative\(|must not be negative' $(ls ./*.go | grep -v '_test\.go$'); then
    echo "check_substrate: a range check in the root package — put the rule on the struct it constrains, for network.Validate" >&2
    fail=1
fi
if grep -nE 'UnicastMaxAgg|NodeMaxAgg|DefaultOptions\(' $(find . -name '*.go' ! -name '*_test.go' \
        ! -path './bench/*' ! -path './.bench_build/*'); then
    echo "check_substrate: a second aggregation setting or a whole-struct RIPPLE default — set RippleOpts.MaxAgg or a flow's DstMaxAgg; the zero core.Options is the paper's" >&2
    fail=1
fi
distcodec=$(find internal/dist -name '*.go' ! -name '*_test.go')
if [ "$(cat $distcodec | grep -cE '[<>]=? *maxFrame' || true)" -ne 1 ] ||
        [ "$(cat $distcodec | grep -c 'strconv\.AppendInt(' || true)" -ne 1 ]; then
    grep -nE '[<>]=? *maxFrame|strconv\.AppendInt\(' $distcodec >&2
    echo "check_substrate: a frame length checked or written outside readFrame/writeFrame — the wire and the journal share one codec" >&2
    fail=1
fi
builders=$(grep -hE '^type (Faults|Mobility|Routing) struct' $(ls ./*.go | grep -v '_test\.go$') | sort)
if [ "$builders" != "type Faults struct{ spec fault.Spec }
type Mobility struct{ spec network.MobilitySpec }
type Routing struct{ spec network.RoutingSpec }" ]; then
    printf '%s\n' "$builders" >&2
    echo "check_substrate: a public builder declares a field beside its spec — set the spec's field in the option" >&2
    fail=1
fi
if grep -nE 'Default(TCP|VoIP|Web)Config\(' $(find . -name '*.go' ! -name '*_test.go' \
        ! -path './internal/transport/*' ! -path './internal/traffic/*' ! -path './bench/*' ! -path './.bench_build/*'); then
    echo "check_substrate: a whole traffic-config default outside its package — leave the fields zero, the config's Normalize fills them" >&2
    fail=1
fi
exit $fail
