#!/bin/sh
# check_docrefs.sh — every cross-reference into the documentation resolves.
# Fail in two cases:
#
#   1. A section reference, `FILE.md, "Section"` (the comma optional, the
#      reference free to break across lines, comment leaders // and # and
#      indentation dropped at the break), in any .go, .sh, .yml or .md file
#      names a FILE that does not exist or a Section that is not a prefix of
#      one of FILE's headings or of a bold (**…**) or italic (*…*) paragraph
#      lead. FILE is read from the repository root, then from the
#      referencing file's directory. CHANGES.md is a record of what each
#      change said at the time, so it is not read; a reference written as
#      code, inside backquotes, is an example of the form and is skipped.
#
#   2. A Test…, Benchmark…, Fuzz… or Example… name cited in ARCHITECTURE.md,
#      README.md or docs/*.md is not a prefix of a function declared in some
#      _test.go file (a prefix, because `-run` and `-bench` take prefixes:
#      BenchmarkTCP names BenchmarkTCPBulk and its kin).
#
# A document rewritten without the section a comment points at, or a test
# renamed without the prose that cites it, fails here instead of leaving a
# reader at a dead end.
#
# Usage: sh scripts/check_docrefs.sh   (from the repo root)
set -eu

fail=0

refs=$(find . -path ./.git -prune -o -path ./CHANGES.md -prune -o -type f \
    \( -name '*.go' -o -name '*.sh' -o -name '*.yml' -o -name '*.md' \) -print |
    sort)

# shellcheck disable=SC2086
if ! awk '
function strip(s) {
    sub(/^[ \t]+/, "", s)
    if (s ~ /^\/\//) sub(/^\/\/+/, "", s)
    else if (s ~ /^#/ && cur !~ /\.md$/) sub(/^#+/, "", s)
    sub(/^[ \t]+/, "", s)
    sub(/[ \t]+$/, "", s)
    return s
}
function squeeze(s) {
    gsub(/[ \t]+/, " ", s)
    return s
}
# scan finds the references that begin on each line of the file just read.
function scan(   i, s, joined, rest, off, start, m, file, sec, q) {
    for (i = 1; i <= n; i++) {
        s = strip(L[i])
        joined = s " " strip(L[i+1]) " " strip(L[i+2])
        rest = joined
        off = 0
        while (match(rest, /[A-Za-z0-9_.\/-]+\.md(, *| +)"[^"]*"/)) {
            start = off + RSTART
            if (start > length(s)) break
            m = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            off += RSTART + RLENGTH - 1
            if (start > 1 && substr(joined, start - 1, 1) == "`") continue
            q = index(m, "\"")
            file = substr(m, 1, index(m, ".md") + 2)
            sec = squeeze(substr(m, q + 1, length(m) - q - 1))
            nref++
            rsrc[nref] = cur ":" i
            rdir[nref] = cur
            sub(/\/[^\/]*$/, "", rdir[nref])
            rfile[nref] = file
            rsec[nref] = sec
        }
    }
    n = 0
}
# leads loads the headings and paragraph leads of path into lead[path, k].
function leads(path,   line, next1, t, k, infence, c) {
    k = 0
    infence = 0
    while ((getline line < path) > 0) { buf[++c] = line }
    close(path)
    for (i2 = 1; i2 <= c; i2++) {
        line = buf[i2]
        if (line ~ /^[ \t]*```/) { infence = !infence; continue }
        if (infence) continue
        if (line ~ /^#+ /) {
            t = line
            sub(/^#+ +/, "", t)
            lead[path, ++k] = squeeze(t)
            continue
        }
        t = line
        sub(/^[ \t]*([-*+]|[0-9]+\.)[ \t]+/, "", t)
        sub(/^[ \t]+/, "", t)
        if (t !~ /^\*/) continue
        next1 = (i2 < c) ? buf[i2+1] : ""
        sub(/^[ \t]+/, "", next1)
        t = squeeze(t " " next1)
        if (t ~ /^\*\*/) {
            t = substr(t, 3)
            if (index(t, "**") > 0) t = substr(t, 1, index(t, "**") - 1)
        } else {
            t = substr(t, 2)
            if (index(t, "*") > 0) t = substr(t, 1, index(t, "*") - 1)
        }
        lead[path, ++k] = t
    }
    for (i2 = 1; i2 <= c; i2++) delete buf[i2]
    nlead[path] = k
    loaded[path] = 1
}
function exists(path,   line, r) {
    r = (getline line < path)
    close(path)
    return r >= 0
}
FNR == 1 { if (n > 0) scan(); cur = FILENAME }
{ L[++n] = $0 }
END {
    if (n > 0) { cur = FILENAME; scan() }
    bad = 0
    for (r = 1; r <= nref; r++) {
        path = rfile[r]
        if (!exists(path)) path = rdir[r] "/" rfile[r]
        if (!exists(path)) {
            printf "%s: %s: no such file\n", rsrc[r], rfile[r] > "/dev/stderr"
            bad = 1
            continue
        }
        if (!loaded[path]) leads(path)
        ok = 0
        for (k = 1; k <= nlead[path]; k++)
            if (index(lead[path, k], rsec[r]) == 1) { ok = 1; break }
        if (!ok) {
            printf "%s: %s, \"%s\": no such heading or paragraph lead\n", rsrc[r], rfile[r], rsec[r] > "/dev/stderr"
            bad = 1
        }
    }
    printf "%d section references\n", nref
    exit bad
}' $refs; then
    fail=1
fi

# Test names: what the _test.go files declare, then what the prose cites.
declared=$(find . -path ./.git -prune -o -type f -name '*_test.go' -print |
    xargs sed -nE 's/^func ((Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*)\(.*/\1/p' |
    sort -u)
cited=$(cat ARCHITECTURE.md README.md docs/*.md |
    grep -oE '(^|[^A-Za-z0-9_])(Test|Benchmark|Fuzz|Example)[A-Z0-9_][A-Za-z0-9_]*' |
    sed 's/^[^A-Za-z0-9_]//' | sort -u)
unknown=0
for name in $cited; do
    found=0
    for d in $declared; do
        case $d in "$name"*) found=1; break ;; esac
    done
    if [ "$found" -eq 0 ]; then
        where=$(grep -nE "(^|[^A-Za-z0-9_])$name([^A-Za-z0-9_]|\$)" ARCHITECTURE.md README.md docs/*.md | head -1 | cut -d: -f1,2)
        echo "$where: $name: no _test.go declares a function with this prefix" >&2
        unknown=1
    fi
done
[ "$unknown" -eq 0 ] || fail=1
echo "$(echo "$cited" | grep -c .) test names cited"
exit $fail
