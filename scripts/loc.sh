#!/bin/sh
# Count non-test Go lines per package of the root module (the nested
# e2ebench/ benchmark module is excluded), then the total. A line is a
# physical line of a .go file that does not end in _test.go, comments and
# blanks included, as `wc -l` counts them.
#
# Usage: sh scripts/loc.sh   (from the repository root; also `make loc`)
set -eu

find . -name '*.go' ! -name '*_test.go' \
    ! -path './e2ebench/*' ! -path './.bench_build/*' ! -path './.git/*' |
    xargs wc -l | awk '
    $2 == "total" { next }
    {
        dir = $2
        sub(/\/[^\/]*$/, "", dir)
        sub(/^\.\/?/, "", dir)
        if (dir == "") dir = "."
        lines[dir] += $1
        total += $1
    }
    END {
        for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }'
