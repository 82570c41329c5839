GO ?= go

.PHONY: all build test test-short test-faults cover bench bench-ingest race lint lint-stats lint-audit size ci experiments experiments-quick vet fmt clean fuzz-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The durability suite (mirrors the CI `faults` job): the failpoint and fsx
# unit tests, the crash matrix (a fault injected at every registered
# failpoint during save-under-concurrent-ingest must leave the previous
# snapshot byte-identical and loadable), the corruption tables of the frame
# (TestLoadRejectsCorruptSnapshots), of the body behind its CRC
# (TestRestoreSnapshotErrors) and of one history (TestDecodeHistoryErrors),
# the v2/v3 refusal, the v4 format golden, and the restored-twin contract.
# -count=1 defeats the test cache: fault schedules are process-global state.
test-faults:
	$(GO) test -count=1 ./internal/failpoint/ ./internal/fsx/
	$(GO) test -count=1 -run 'TestCrashMatrixSaveUnderIngest|TestSaveFileLoadFileRoundTrip|TestLoadRejectsCorruptSnapshots|TestLoadRefusesOldSnapshots|TestSnapshotFormatGolden|TestRestoredTwinMatchesUnrestarted' .
	$(GO) test -count=1 -run 'TestRestoreSnapshotErrors|TestSnapshotRoundTrip|TestDecodeHistoryErrors|TestHistoryBinaryRoundTrip' ./internal/preprocess/ ./internal/timeseries/

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Micro-benchmarks of the single-observe path (the end-to-end verdict is
# `go run ./bench -compare`): ObserveBatch throughput at 1, 4, and GOMAXPROCS
# goroutines against the striped catalog, plus the fingerprint-cache hit and
# miss paths.
bench-ingest:
	$(GO) test -run '^$$' -bench 'BenchmarkObserve(Parallel|CacheHit|CacheMiss)$$' -benchmem .

# Run the full suite under the race detector (mirrors the CI `race` job).
race:
	$(GO) test -race ./...

# Mirrors the CI `lint` job. staticcheck runs when installed; install it
# with: go install honnef.co/go/tools/cmd/staticcheck@latest
lint:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) run ./cmd/qb5000vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# The sizes of the analyzer suite itself, printed on every CI lint run:
# code-only lines (no comments, no blanks) of internal/lint's non-test files,
# the number of analyzers, and the //lint:ignore inventory's header line.
lint-stats:
	@printf 'internal/lint code lines: '; ls internal/lint/*.go | grep -v _test | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l
	@printf 'analyzers: '; $(GO) run ./cmd/qb5000vet -list | wc -l
	@$(GO) run ./cmd/qb5000vet -debt ./... | head -n 1

# The analyzers' mutation audit (DESIGN.md §7): seeds each row of
# internal/lint/audit/mutations.txt into a temporary export of HEAD and
# prints which gate catches it — a qb5000vet finding, a failing test, or
# both. Fails if a row does not apply or no gate catches it. About a
# quarter of an hour on two cores; not part of `make ci`.
lint-audit:
	sh internal/lint/audit/run.sh

# Code-only lines (no comments, no blanks) of the non-test files of the four
# packages between the catalog and a forecast — the number a simplicity PR
# over them quotes before and after.
size:
	@printf 'timeseries+cluster+core+experiments code lines: '; ls internal/timeseries/*.go internal/cluster/*.go internal/core/*.go internal/experiments/*.go | grep -v _test | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l
	@printf 'persistence (preprocess/snapshot.go + timeseries/marshal.go) code lines: '; cat internal/preprocess/snapshot.go internal/timeseries/marshal.go | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l

# Coverage-guided fuzz smokes (mirror the fuzz steps of the CI `faults` job,
# plus the SQL parser): 20 s of the snapshot frame, 20 s of correctly framed
# arbitrary snapshot bodies against the decoder behind the CRC (an accepted
# body runs a whole Maintain, hence the minimize cap), 20 s of one history's
# token stream (an accepted history must re-encode to its own bytes), 20 s of
# the trace reader, then 30 s of the SQL parser, which CI does not run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzSnapshotBody -fuzztime 20s -fuzzminimizetime 2s .
	$(GO) test ./internal/timeseries/ -run '^$$' -fuzz FuzzDecodeHistory -fuzztime 20s
	$(GO) test ./internal/tracefile/ -run '^$$' -fuzz FuzzTraceRead -fuzztime 20s
	$(GO) test ./internal/sqlparse/ -run '^$$' -fuzz FuzzParse -fuzztime 30s

# Full local equivalent of the CI pipeline: lint, build, test, race, and a
# one-iteration benchmark smoke.
ci: lint build test race
	$(GO) test -bench=. -benchtime=1x ./...
	$(GO) run ./cmd/qb5000bench -exp table3

# Regenerate every table and figure from the paper at full fidelity.
experiments:
	$(GO) run ./cmd/qb5000bench -exp all

experiments-quick:
	$(GO) run ./cmd/qb5000bench -exp all -quick

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
