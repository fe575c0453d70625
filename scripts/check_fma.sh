#!/bin/sh
# check_fma.sh — no fused multiply-add in the simulator's own code, on any
# architecture Go fuses on. Go may compute x*y + z with one fused
# instruction, skipping the rounding of x*y, on arm64, ppc64le, s390x and
# riscv64 (amd64 at the default GOAMD64=v1 never fuses). A fused site gives a
# result that differs in the last bit from amd64's, and the link plan, the
# shadowing draw or a VoIP score then decides differently: a campaign's
# bytes would depend on the CPU that ran it. The Go spec's way out is an
# explicit conversion, which rounds: z + float64(x*y) is never fused.
#
# The gate cross-builds the three commands (cmd/experiments, cmd/ripplesim,
# cmd/rippletrace) for each of the four architectures, disassembles them
# with `go tool objdump` and fails on any fused multiply-add (or
# multiply-subtract) instruction in a symbol of this module: the root package
# ripple, ripple/... and the commands' main. Code of the standard library
# and the runtime is not ours to round, and math.FMA is not called.
#
# Each architecture's build takes about 16 s on two cores from a cold cache.
#
# Usage: sh scripts/check_fma.sh   (from the repo root)
set -eu

# The fused forms, by architecture: arm64 FMADDD FMSUBD FNMADDD FNMSUBD (and
# the S forms, and the vector VFMLA/VFMLS); ppc64le FMADD FMSUB FNMADD FNMSUB
# (S and CC forms, and the VSX XS*/XV* multiply-adds); s390x MADBR MSDBR
# MAEBR MSEBR and their memory forms, WFMADB and the vector VFMA family;
# riscv64 FMADDD FMSUBD FNMADDD FNMSUBD and the S forms.
fused='^(FN?M(ADD|SUB)[DS]?(CC)?|VFML[AS]|X[SV]N?M(ADD|SUB)[AM][DS]P|M[AS][ED]BR?|W?FN?M[AS][DS]B|VFN?M[AS]([DS]B)?)$'

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

fail=0
for arch in arm64 ppc64le s390x riscv64; do
    mkdir "$out/$arch"
    GOOS=linux GOARCH=$arch go build -o "$out/$arch/" ./cmd/experiments ./cmd/ripplesim ./cmd/rippletrace
    counts=""
    for bin in "$out/$arch"/*; do
        go tool objdump -s '^(ripple[./]|main\.)' "$bin" |
            awk -v re="$fused" '/^TEXT/ { fn = $2; next } $4 ~ re { print fn, $1, $4 }' > "$bin.fma"
        counts="$counts $(basename "$bin") $(wc -l < "$bin.fma"),"
    done
    echo "$arch: fused multiply-adds in this module's code:${counts%,}"
    if cat "$out/$arch"/*.fma | grep -q .; then
        cat "$out/$arch"/*.fma | sort | uniq -c | sed 's/^ */    /' >&2
        fail=1
    fi
done
[ "$fail" -eq 0 ] || echo "round the product with an explicit float64(…) conversion at each site" >&2
exit $fail
