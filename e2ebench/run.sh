#!/bin/sh
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   sh e2ebench/run.sh --workload phy_fleet --seed 1 --seconds 30 --trace 0
#   sh e2ebench/run.sh compare A.jsonl B.jsonl
#
# Every build artefact (Go build cache, binary, journals) stays under
# .bench_build in the current directory.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off \
	XDG_CONFIG_HOME="$out/config" HOME="$out/home"
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
