#!/bin/sh
# Run the headline benchmarks and write BENCH_PR${PR}.json — one file
# per PR, uploaded as a CI artifact, so perf regressions show up as a
# diffable series. After writing, print a side-by-side delta against
# the most recent previous BENCH_*.json in the repo root.
#
# Usage: scripts/bench.sh [output.json]
#   PR=7 scripts/bench.sh          -> BENCH_PR7.json
#   scripts/bench.sh custom.json   -> custom.json (PR still stamped)
# Benchtime can be tuned via BENCHTIME (default 1s).
set -eu

pr="${PR:-25}"
out="${1:-BENCH_PR${pr}.json}"
benchtime="${BENCHTIME:-1s}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# The headline set: per-packet pipeline (cached-capture path), channel
# synthesis (an 8-antenna receive of a frame never seen before; and
# the prepared batch receive, noise fork included, at the end-to-end
# workload's 1480-sample frame), the 2048-point transform it runs nine
# of and the AWGN of one such capture, one OFDM packet build and one
# uncached testbed frame build (modulated into its padded buffer), the AP
# registry's enroll of a shared signature, fusion ingest (a known client
# and a first-contact one), defense
# directive, journal append + group commit (each package's hot path),
# the ops metrics update the first four carry, partitioned ingest at
# 1/4/16 partitions (per-report and batched), the replication cursor's
# streaming throughput, the per-packet trace span record, and the wire
# framing every frame goes through.
go test -run '^$' -benchmem -benchtime "$benchtime" \
    -bench 'BenchmarkPipelinePerPacket$' . | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime "$benchtime" \
    -bench 'BenchmarkReceive8Antennas$/^(unique|prepared)$' ./internal/radio | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime "$benchtime" \
    -bench 'BenchmarkAddAWGN8x1480$' ./internal/rng | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime "$benchtime" \
    -bench 'BenchmarkFFTInPlace2048$' ./internal/dsp | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime "$benchtime" \
    -bench 'BenchmarkBuildPacket$' ./internal/ofdm | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime "$benchtime" \
    -bench 'BenchmarkFrameBaseband$' ./internal/testbed | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime "$benchtime" \
    -bench 'BenchmarkEnrollShared$' ./internal/core | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime "$benchtime" \
    -bench 'BenchmarkFusionIngest$' ./internal/fusion | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime "$benchtime" \
    -bench 'BenchmarkFusionNewClient$' ./internal/fusion | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime "$benchtime" \
    -bench 'BenchmarkDefenseDirective$' ./internal/defense | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime "$benchtime" \
    -bench 'BenchmarkJournalAppend$' ./internal/journal | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime "$benchtime" \
    -bench 'BenchmarkJournalAppendBatch$' ./internal/journal | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime "$benchtime" \
    -bench 'BenchmarkMetricsCounter$' ./internal/ops | tee -a "$tmp"
# The partition benches run at a fixed iteration count, not adaptive
# time: every op mints a fresh client, so a sub-bench's live heap (and
# GC share) scales with its iteration count, and adaptive -benchtime
# hands each parts= variant a different count — making the in-file
# parts=1/4/16 comparison measure iteration luck instead of routing
# cost. A fixed count gives every variant the same client population.
go test -run '^$' -benchmem -benchtime "${PARTITION_BENCHTIME:-200000x}" \
    -bench 'BenchmarkPartitionIngest$' ./internal/partition | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime "${PARTITION_BENCHTIME:-200000x}" \
    -bench 'BenchmarkPartitionIngestBatch$' ./internal/partition | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime "$benchtime" \
    -bench 'BenchmarkReplicationCursor$' ./internal/journal | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime "$benchtime" \
    -bench 'BenchmarkTraceSpan$' ./internal/trace | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime "$benchtime" \
    -bench 'BenchmarkWriteMessage$' ./internal/netproto | tee -a "$tmp"

# Find the newest previous trajectory file (highest PR number below
# ours) before the new file lands.
prev=""
for f in BENCH_PR*.json; do
    [ -e "$f" ] || continue
    [ "$f" = "$out" ] && continue
    n="${f#BENCH_PR}"; n="${n%.json}"
    case "$n" in *[!0-9]*) continue ;; esac
    if [ "$n" -lt "$pr" ]; then
        if [ -z "$prev" ]; then prev="$f"; else
            pn="${prev#BENCH_PR}"; pn="${pn%.json}"
            [ "$n" -gt "$pn" ] && prev="$f"
        fi
    fi
done

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v go="$(go env GOVERSION)" -v pr="$pr" '
BEGIN { n = 0 }
/^pkg:/ { pkg = $2 }
/^Benchmark/ {
    name = $1; iters = $2
    ns = ""; bytes = ""; allocs = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    line = sprintf("    {\"pkg\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", pkg, name, iters, ns)
    if (bytes != "") line = line sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
    line = line "}"
    results[n++] = line
}
END {
    printf "{\n  \"pr\": %s,\n  \"date\": \"%s\", \"go\": \"%s\",\n  \"benchmarks\": [\n", pr, date, go
    for (i = 0; i < n; i++) printf "%s%s\n", results[i], (i < n - 1 ? "," : "")
    print "  ]\n}"
}
' "$tmp" > "$out"

echo "wrote $out:"
cat "$out"

if [ -n "$prev" ]; then
    echo
    echo "delta vs $prev:"
    awk -v prevfile="$prev" -v curfile="$out" '
    function parse(file, dest,   line, name, ns, bytes, allocs) {
        while ((getline line < file) > 0) {
            if (line !~ /"name":/) continue
            name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
            ns = line; sub(/.*"ns_per_op": /, "", ns); sub(/[,}].*/, "", ns)
            bytes = "-"; allocs = "-"
            if (line ~ /"bytes_per_op":/) { bytes = line; sub(/.*"bytes_per_op": /, "", bytes); sub(/[,}].*/, "", bytes) }
            if (line ~ /"allocs_per_op":/) { allocs = line; sub(/.*"allocs_per_op": /, "", allocs); sub(/[,}].*/, "", allocs) }
            dest[name] = ns "|" bytes "|" allocs
        }
        close(file)
    }
    BEGIN {
        parse(prevfile, old); parse(curfile, cur)
        printf "%-30s %14s %14s %9s %12s %12s %10s\n", "benchmark", "old ns/op", "new ns/op", "speedup", "old B/op", "new B/op", "allocs"
        for (name in cur) {
            split(cur[name], c, "|")
            if (name in old) {
                split(old[name], o, "|")
                ratio = (o[1] + 0 > 0) ? sprintf("%.2fx", o[1] / c[1]) : "-"
                da = (o[3] != "-" && c[3] != "-") ? o[3] "->" c[3] : "-"
                printf "%-30s %14s %14s %9s %12s %12s %10s\n", name, o[1], c[1], ratio, o[2], c[2], da
            } else {
                printf "%-30s %14s %14s %9s %12s %12s %10s\n", name, "-", c[1], "new", "-", c[2], c[3]
            }
        }
    }'
fi
