#!/bin/sh
# Fast perf-regression gate for CI: run the trajectory benchmarks at
# fixed low iteration counts and fail if any ns/op regresses more than
# 2x against the committed baseline JSON (the newest BENCH_PR*.json in
# the repo root, or $1 if given), or if a zero-/low-alloc fast path
# exceeds its hard allocs/op budget (see the budget table below). The
# per-packet pipeline runs 100 iterations (~300 us/op), as do the
# uncached 8-antenna receives (~300 and ~500 us/op, the channel-synthesis
# rows) and a 16-frame Stream batch (~4 ms/op; only its alloc budget
# gates, and 100 batches amortise its warm-up allocations); the AWGN of
# one 8x1480 capture runs 500 (~150 us/op); the 2048-point FFT runs 2000 (~25 us/op); the sub-microsecond hot
# paths get enough iterations to measure >= 10 ms of real work, or
# warmup noise would dominate. Fixed counts are noisy, but a 2x bar is far above CI
# jitter, so this catches real cliffs — an accidental O(n^2), a lost
# cache, a sync.Pool that stopped pooling — without the cost or
# flakiness of a full benchmark run.
#
# Usage: scripts/bench_smoke.sh [baseline.json]
set -eu

baseline="${1:-}"
if [ -z "$baseline" ]; then
    best=-1
    for f in BENCH_PR*.json; do
        [ -e "$f" ] || continue
        n="${f#BENCH_PR}"; n="${n%.json}"
        case "$n" in *[!0-9]*) continue ;; esac
        if [ "$n" -gt "$best" ]; then best="$n"; baseline="$f"; fi
    done
fi
if [ -z "$baseline" ] || [ ! -e "$baseline" ]; then
    echo "bench_smoke: no baseline BENCH_PR*.json found" >&2
    exit 1
fi
echo "bench_smoke: baseline $baseline"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -benchmem -benchtime 100x \
    -bench 'BenchmarkPipelinePerPacket$' . | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 100x \
    -bench 'BenchmarkReceive8Antennas$/^(unique|prepared)$' ./internal/radio | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 100x \
    -bench 'BenchmarkStreamIngest$/^batch=16$/^stream$' . | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 500x \
    -bench 'BenchmarkAddAWGN8x1480$' ./internal/rng | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 2000x \
    -bench 'BenchmarkFFTInPlace2048$' ./internal/dsp | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 20000x \
    -bench 'BenchmarkFusionIngest$' ./internal/fusion | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 50000x \
    -bench 'BenchmarkDefenseDirective$' ./internal/defense | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 50000x \
    -bench 'BenchmarkJournalAppend$' ./internal/journal | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 1000x \
    -bench 'BenchmarkJournalAppendBatch$' ./internal/journal | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 500000x \
    -bench 'BenchmarkMetricsCounter$' ./internal/ops | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 20000x \
    -bench 'BenchmarkPartitionIngest$' ./internal/partition | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 20000x \
    -bench 'BenchmarkPartitionIngestBatch$' ./internal/partition | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 20x \
    -bench 'BenchmarkReplicationCursor$' ./internal/journal | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 500000x \
    -bench 'BenchmarkTraceSpan$' ./internal/trace | tee -a "$tmp"
go test -run '^$' -benchmem -benchtime 500000x \
    -bench 'BenchmarkWriteMessage$' ./internal/netproto | tee -a "$tmp"

awk -v baseline="$baseline" '
function parse(file,   line, name, ns) {
    while ((getline line < file) > 0) {
        if (line !~ /"name":/) continue
        name = line; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        sub(/-[0-9]+$/, "", name)  # strip -GOMAXPROCS suffix if present
        ns = line; sub(/.*"ns_per_op": /, "", ns); sub(/[,}].*/, "", ns)
        base[name] = ns + 0
    }
    close(file)
}
BEGIN {
    parse(baseline); bad = 0
    # Hard allocs/op ceilings for the zero-/low-alloc fast paths. These
    # are absolute (not baseline-relative): pooling regressions show up
    # as order-of-magnitude alloc jumps, so generous ceilings stay far
    # from jitter while still catching a sync.Pool that stopped pooling
    # or a scratch buffer that started escaping.
    budget["BenchmarkReplicationCursor"] = 100          # ~20 measured; 10063 before pooling
    budget["BenchmarkJournalAppendBatch/interval"] = 4  # 0 measured (64-record batch)
    budget["BenchmarkJournalAppendBatch/always"] = 4    # 0 measured
    budget["BenchmarkFusionIngest/sharded"] = 1     # 1 measured: the Decision.APs slice
    budget["BenchmarkPartitionIngest/parts=1"] = 3  # 2 measured; an escaping batch-of-one slice adds 2
    budget["BenchmarkPartitionIngestBatch/parts=1"] = 16   # ~5 measured
    budget["BenchmarkPartitionIngestBatch/parts=4"] = 16
    budget["BenchmarkPartitionIngestBatch/parts=16"] = 16
    budget["BenchmarkTraceSpan"] = 0  # hard zero: the span record sits on every packet
    budget["BenchmarkWriteMessage"] = 0  # hard zero: every frame on the wire is framed here
    budget["BenchmarkReceive8Antennas/unique"] = 0  # hard zero: channel synthesis runs on arena buffers
    budget["BenchmarkReceive8Antennas/prepared"] = 0  # hard zero: PreparedReceive is a value; the noise fork is pooled
    budget["BenchmarkStreamIngest/batch=16/stream"] = 160  # ~100 measured (16 reports); 263 when workers synthesised without an arena
    budget["BenchmarkAddAWGN8x1480"] = 0  # hard zero: normals drawn into a stack buffer
    budget["BenchmarkFFTInPlace2048"] = 0  # hard zero: cached tables, in place
}
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i + 0
        if ($(i+1) == "allocs/op") allocs = $i + 0
    }
    if (allocs != "" && name in budget) {
        averdict = allocs > budget[name] ? "ALLOC REGRESSION" : "ok"
        printf "%-42s allocs/op %6d (budget %6d)  %s\n", name, allocs, budget[name], averdict
        if (allocs > budget[name]) bad = 1
    }
    if (ns == "" || !(name in base)) next
    ratio = base[name] > 0 ? ns / base[name] : 0
    verdict = ratio > 2.0 ? "REGRESSION" : "ok"
    printf "%-42s baseline %12.0f ns/op  now %12.0f ns/op  %.2fx  %s\n", name, base[name], ns, ratio, verdict
    if (ratio > 2.0) bad = 1
}
END {
    if (bad) { print "bench_smoke: regression vs " baseline " (ns/op > 2x or allocs/op over budget)"; exit 1 }
    print "bench_smoke: all within 2x of " baseline " and alloc budgets"
}
' "$tmp"
