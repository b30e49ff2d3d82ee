# SecureAngle build/test/bench entry points (mirrors the CI jobs).

GO ?= go

.PHONY: build test race stress bench bench-smoke fuzz lint loc ops-smoke torture

build:
	$(GO) build ./...

# `go test ./...` does not enter the nested benchmark module, so vet
# and test it against the program separately.
test: build
	$(GO) test ./...
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

race: build
	$(GO) test -race ./...

# The stress trio CI runs: wire protocol, fusion/defense engines, and
# the flight recorder (journal + replay + crash recovery), each 3x
# under the race detector.
stress:
	$(GO) test -race -count=3 ./internal/netproto
	$(GO) test -race -count=3 -run Fusion ./internal/fusion ./internal/netproto
	$(GO) test -race -count=3 -run Defense ./...
	$(GO) test -race -count=3 -run 'Journal|Replay|Recovery' ./...
	$(GO) test -race -count=3 -run 'Ops|Enroll|Status' ./...
	$(GO) test -race -count=3 -run 'Partition|Replicat|Standby|Compact' ./...
	$(GO) test -race -count=3 -run 'Trace|Incident' ./...

# Headline benchmarks -> BENCH_PR$(PR).json (see scripts/bench.sh; CI
# uploads the file as an artifact and the script prints a side-by-side
# delta against the previous PR's file). Override with `make bench PR=7`.
PR ?= 17
bench:
	PR=$(PR) sh scripts/bench.sh

# Fast 2x-regression gate against the committed baseline JSON.
bench-smoke:
	sh scripts/bench_smoke.sh

# Time-boxed native fuzzing of every hostile-bytes decoder: the wire
# frames and the buffered frame reader, the journal segment decoder and
# event codecs, the engine snapshot codecs, the signature codec, and
# the I/Q capture reader.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzUnmarshal -fuzztime 30s ./internal/netproto
	$(GO) test -run '^$$' -fuzz FuzzFrameReader -fuzztime 15s ./internal/netproto
	$(GO) test -run '^$$' -fuzz FuzzEventDecoders -fuzztime 15s ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzJournalSegment -fuzztime 15s ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzFusionSnapshotRestore -fuzztime 15s ./internal/fusion
	$(GO) test -run '^$$' -fuzz FuzzDefenseSnapshotRestore -fuzztime 15s ./internal/defense
	$(GO) test -run '^$$' -fuzz FuzzSignatureCodec -fuzztime 15s ./internal/signature
	$(GO) test -run '^$$' -fuzz FuzzIQFileRead -fuzztime 15s ./internal/iqfile

# Crash-torture the flight recorder: kill -9 a serving controller
# mid-rotation/mid-snapshot under load, many times, and assert every
# journal directory recovers cleanly (see scripts/journal_torture.sh).
torture:
	sh scripts/journal_torture.sh

# End-to-end smoke of the operations surface: real binary, real ops
# endpoint, /metrics + /status validated from outside, enrollment
# runbook exercised (see scripts/ops_smoke.sh).
ops-smoke:
	sh scripts/ops_smoke.sh

# The control plane (netproto and everything it imports: defense,
# journal, partition, fusion) must not link the DSP stack.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@out=$$($(GO) list -deps ./internal/netproto | grep -E '^secureangle/internal/(signature|music|cmat|antenna|dsp)$$'); \
	if [ -n "$$out" ]; then echo "internal/netproto links the DSP stack:"; echo "$$out"; exit 1; fi

# Non-test Go lines per package and in total (root module, without the
# nested e2ebench/ benchmark module). Informational: nothing gates on it.
loc:
	sh scripts/loc.sh
