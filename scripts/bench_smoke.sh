#!/bin/sh
# Fast perf-regression gate for CI: run the trajectory benchmarks at
# fixed low iteration counts, five times each, and fail if any row's
# median ns/op regresses more than 2x against the committed baseline
# JSON (the newest BENCH_PR*.json in the repo root, or $1 if given), or
# if any single run of a zero-/low-alloc fast path exceeds its hard
# allocs/op budget (see the budget table below). The median of five
# keeps one run slowed by a busy neighbour on a shared host from failing
# the gate, while a real 2x slowdown moves every run. The
# per-packet pipeline runs 100 iterations (~300 us/op), as do the
# uncached 8-antenna receives (~300 and ~500 us/op, the channel-synthesis
# rows) and a 16-frame Stream batch (~4 ms/op; only its alloc budget
# gates, and 100 batches amortise its warm-up allocations); the AWGN of
# one 8x1480 capture runs 500 (~150 us/op), as do one OFDM packet
# build and one uncached testbed frame build (~20 us/op each; alloc
# budgets only); the 2048-point FFT runs 2000
# (~25 us/op); 20000 shared-signature enrolls (~70 ns/op; alloc budget
# only) cycle through the benchmark's 4096 MACs; 20000 first-contact
# fusions (~1 us/op; alloc budget only) stay under the engine's
# client cap; the sub-microsecond hot
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
count=5

go test -run '^$' -benchmem -count "$count" -benchtime 100x \
    -bench 'BenchmarkPipelinePerPacket$' . | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 100x \
    -bench 'BenchmarkReceive8Antennas$/^(unique|prepared)$' ./internal/radio | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 100x \
    -bench 'BenchmarkStreamIngest$/^batch=16$/^stream$' . | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 500x \
    -bench 'BenchmarkAddAWGN8x1480$' ./internal/rng | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 500x \
    -bench 'BenchmarkBuildPacket$' ./internal/ofdm | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 500x \
    -bench 'BenchmarkFrameBaseband$' ./internal/testbed | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 20000x \
    -bench 'BenchmarkEnrollShared$' ./internal/core | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 2000x \
    -bench 'BenchmarkFFTInPlace2048$' ./internal/dsp | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 20000x \
    -bench 'BenchmarkFusionIngest$' ./internal/fusion | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 20000x \
    -bench 'BenchmarkFusionNewClient$' ./internal/fusion | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 50000x \
    -bench 'BenchmarkDefenseDirective$' ./internal/defense | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 50000x \
    -bench 'BenchmarkJournalAppend$' ./internal/journal | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 1000x \
    -bench 'BenchmarkJournalAppendBatch$' ./internal/journal | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 500000x \
    -bench 'BenchmarkMetricsCounter$' ./internal/ops | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 20000x \
    -bench 'BenchmarkPartitionIngest$' ./internal/partition | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 20000x \
    -bench 'BenchmarkPartitionIngestBatch$' ./internal/partition | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 20x \
    -bench 'BenchmarkReplicationCursor$' ./internal/journal | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 500000x \
    -bench 'BenchmarkTraceSpan$' ./internal/trace | tee -a "$tmp"
go test -run '^$' -benchmem -count "$count" -benchtime 500000x \
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
    budget["BenchmarkFusionNewClient"] = 2  # 2 measured: the client and the Decision.APs slice; 5 when the pending map, its storage and the track filter were objects apart from the client
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
    budget["BenchmarkBuildPacket"] = 10  # 4 measured (bits, samples, points, packet); 142 when every symbol allocated
    budget["BenchmarkFrameBaseband"] = 6  # 6 measured (cache entry, ready channel, map key, bits, samples, points); 8 when the frame was modulated and then copied into a padded slice
    budget["BenchmarkEnrollShared"] = 1  # 1 measured: the tracker; 4 when each enroll deep-copied the signature
    nrows = 0; na = 0
}
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i + 0
        if ($(i+1) == "allocs/op") allocs = $i + 0
    }
    if (allocs != "" && name in budget) {
        if (!(name in aruns)) { aruns[name] = 0; aorder[na++] = name; amax[name] = allocs }
        aruns[name]++
        if (allocs > amax[name]) amax[name] = allocs
    }
    if (ns == "" || !(name in base)) next
    if (!(name in runs)) { runs[name] = 0; order[nrows++] = name }
    samples[name, runs[name]++] = ns
}
END {
    for (r = 0; r < na; r++) {
        name = aorder[r]
        averdict = amax[name] > budget[name] ? "ALLOC REGRESSION" : "ok"
        printf "%-42s allocs/op max of %d %6d (budget %6d)  %s\n", name, aruns[name], amax[name], budget[name], averdict
        if (amax[name] > budget[name]) bad = 1
    }
    for (r = 0; r < nrows; r++) {
        name = order[r]; n = runs[name]
        for (i = 0; i < n; i++) v[i] = samples[name, i]
        for (i = 1; i < n; i++) {  # insertion sort of the runs
            x = v[i]
            for (j = i - 1; j >= 0 && v[j] > x; j--) v[j+1] = v[j]
            v[j+1] = x
        }
        med = n % 2 ? v[(n-1)/2] : (v[n/2-1] + v[n/2]) / 2
        ratio = base[name] > 0 ? med / base[name] : 0
        verdict = ratio > 2.0 ? "REGRESSION" : "ok"
        printf "%-42s baseline %12.0f ns/op  median of %d %12.0f ns/op  %.2fx  %s\n", name, base[name], n, med, ratio, verdict
        if (ratio > 2.0) bad = 1
    }
    if (bad) { print "bench_smoke: regression vs " baseline " (median ns/op > 2x or allocs/op over budget)"; exit 1 }
    print "bench_smoke: all medians within 2x of " baseline " and alloc budgets"
}
' "$tmp"
