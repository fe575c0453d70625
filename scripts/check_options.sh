#!/bin/sh
# check_options.sh — "options before = after" as a reviewed diff. Counts what
# a user or a caller can set:
#
#   cli_flags      flag definitions in the non-test .go files under cmd/
#   env_names      distinct RIPPLE_[A-Z_]+ names in non-test .go files
#   <pkg>.<Type>   fields of the option structs: the run config
#                  (network.Config) and the structs nested in it or set
#                  beside it (routing, mobility, flows, faults, RIPPLE's
#                  options), a campaign grid, the experiment options, the
#                  public Scenario and the distributed-run options
#
# and compares the counts with the committed scripts/options.txt. Any
# difference fails: a PR that adds or removes an option changes that file in
# the same diff, where a reviewer sees it (like scripts/coverage_floor.txt).
#
# Usage: sh scripts/check_options.sh   (from the repo root)
set -eu

fields() { # fields of struct type $2, declared in a non-test file of directory $1
    find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | awk -v type="$2" '
        $0 ~ "^type " type " struct [{]" { inside = 1; next }
        inside && /^}/ { inside = 0 }
        inside && match($0, /^\t[A-Za-z_][A-Za-z0-9_]*(, [A-Za-z_][A-Za-z0-9_]*)* /) {
            names = substr($0, RSTART, RLENGTH)
            n += 1 + gsub(/,/, ",", names)
        }
        END { print n + 0 }'
}

flags=$(find cmd -name '*.go' ! -name '*_test.go' | xargs grep -hoE \
    '\b(flag|fs)\.(Bool|Duration|Float64|Func|Int|Int64|String|Uint|Uint64|Var|[A-Za-z0-9]+Var)\(' | wc -l)
envs=$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | xargs grep -hoE 'RIPPLE_[A-Z_]+' | sort -u)

got=$(cat <<EOF
cli_flags $((flags))
env_names $(echo $envs | wc -w | tr -d ' ') $(echo $envs)
network.Config $(fields internal/network Config)
network.RoutingSpec $(fields internal/network RoutingSpec)
network.MobilitySpec $(fields internal/network MobilitySpec)
network.FlowSpec $(fields internal/network FlowSpec)
fault.Spec $(fields internal/fault Spec)
core.Options $(fields internal/core Options)
campaign.Grid $(fields internal/campaign Grid)
experiments.Options $(fields internal/experiments Options)
ripple.Scenario $(fields . Scenario)
dist.Options $(fields internal/dist Options)
ripple.DistributeOptions $(fields . DistributeOptions)
dist.RedialOptions $(fields internal/dist RedialOptions)
EOF
)
if ! echo "$got" | diff scripts/options.txt - >&2; then
    echo "check_options: the counts above (>) differ from scripts/options.txt (<) — an option was added or removed; if that is the PR's intent, update the file in the same diff" >&2
    exit 1
fi
