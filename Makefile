GO ?= go

.PHONY: all build test check fmt vet lint race bench benchsmoke crashsweep fuzzsmoke allocguard monitorsmoke shardsmoke trafficsmoke forksmoke perfbenchtest nightly profile

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-commit gate: formatting, vet, the full test suite under
# the race detector, the zero-allocation guards (which the race build must
# skip, hence the separate non-race run), a one-iteration pass over every
# benchmark so the perf harness can't silently rot, a bounded commit-point
# crash sweep, a short fuzz of the trace decoders, the live-monitor smoke
# (real kindle binary scraped over HTTP mid-run), the sharded-replay
# smoke (real binary, -shards 1 vs 4 stats dumps diffed), the traffic
# smoke (real binary, a seeded multi-tenant spec run twice, both dumps
# diffed), the snapshot/fork smoke (real binary, -snapshot-out then two
# -snapshot-in resumes, all dumps diffed against a cold run), and the
# repository benchmark's own unit tests.
check: fmt vet race allocguard benchsmoke crashsweep fuzzsmoke monitorsmoke shardsmoke trafficsmoke forksmoke perfbenchtest

# allocguard pins the replay fast path's zero-allocation steady state (see
# allocguard_test.go); it needs a non-race build because race instrumentation
# changes allocation counts.
allocguard:
	$(GO) test -run ZeroAlloc .

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

benchsmoke:
	$(GO) test -bench . -benchtime 1x -run XXX ./...

# crashsweep replays the workload with a power failure injected at NVM
# commit-point granularity (bounded scale; see EXPERIMENTS.md). -check fails
# the build if any injection point violates the recovery invariants.
crashsweep:
	$(GO) run ./cmd/kindle-bench -experiment crash-sweep -scale 0.0625 -check

# fuzzsmoke runs the checked-in corpus plus 10 seconds of new coverage over
# the v1/v2 binary trace decoders (see internal/trace/fuzz_test.go).
fuzzsmoke:
	$(GO) test -run XXX -fuzz FuzzDecode -fuzztime 10s ./internal/trace

# monitorsmoke builds the real kindle binary, runs a tiny replay with
# -monitor, and asserts over HTTP that /metrics parses as Prometheus text
# exposition and /progress reaches 100% (see monitor_smoke_test.go).
monitorsmoke:
	$(GO) test -run TestMonitorSmoke .

# shardsmoke builds the real kindle binary, writes a tiny v2 image, and
# requires `-shards 1` and `-shards 4` to produce byte-identical stats
# dumps — the sharded determinism contract, end to end (see
# shard_smoke_test.go).
shardsmoke:
	$(GO) test -run TestShardSmoke .

# trafficsmoke builds the real kindle binary and runs the same seeded
# multi-tenant traffic spec twice, requiring byte-identical stats dumps:
# the traffic engine's determinism contract, end to end (see
# traffic_smoke_test.go).
trafficsmoke:
	$(GO) test -run TestTrafficSmoke .

# forksmoke builds the real kindle binary and requires a cold run, a run
# that freezes a mid-replay snapshot with -snapshot-out (and still
# completes), and two -snapshot-in resumes of that snapshot to produce
# byte-identical stats dumps — the copy-on-write snapshot contract, end to
# end (see fork_smoke_test.go).
forksmoke:
	$(GO) test -run TestForkSmoke .

# perfbenchtest runs the repository benchmark's unit tests (output digests,
# span self-time, profile layer bucketing). perfbench/ is its own Go module,
# so `go test ./...` at the root never reaches it.
perfbenchtest:
	$(GO) -C perfbench test ./...

# lint runs staticcheck when it is installed (CI installs a pinned version;
# see .github/workflows/ci.yml) and falls back to go vet locally so the
# target never requires a network fetch.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

# nightly is the scheduled deep gate (.github/workflows/nightly.yml): a
# larger bounded crash sweep than the push gate's, plus the KINDLE_NIGHTLY
# golden digests (a long-horizon lifecycle and a large traffic run, each
# checked against its recorded stats-dump digest and final clock; the
# traffic run also against a repeat run). KINDLE_NIGHTLY_DIR collects
# mismatching dumps as artifacts for upload.
nightly:
	$(GO) run ./cmd/kindle-bench -experiment crash-sweep -scale 0.25 -check
	KINDLE_NIGHTLY=1 $(GO) test -run TestNightly -timeout 45m -v .

# profile records CPU and allocation profiles for both replay benchmarks
# under profiles/ (gitignored). See "Recipe: profiling the replay engine"
# in EXPERIMENTS.md for how to read them.
profile:
	mkdir -p profiles
	$(GO) test -run XXX -bench '^BenchmarkReplayThroughput$$' -benchtime 2s \
		-cpuprofile profiles/replay_cpu.prof -memprofile profiles/replay_mem.prof -o profiles/kindle.test .
	$(GO) test -run XXX -bench '^BenchmarkStreamReplayThroughput$$' -benchtime 2s \
		-cpuprofile profiles/stream_cpu.prof -memprofile profiles/stream_mem.prof -o profiles/kindle.test .
	@echo "wrote profiles/{replay,stream}_{cpu,mem}.prof; try:"
	@echo "  go tool pprof -top -nodecount 20 profiles/kindle.test profiles/replay_cpu.prof"

# bench runs the microbenchmarks, then records the headline numbers
# (replay records/sec, suite wall-clock, GOMAXPROCS) in BENCH_replay.json
# for cross-PR comparison.
bench:
	$(GO) test -bench . -benchmem -run XXX ./internal/mem ./internal/obs ./internal/sim
	$(GO) test -run TestWriteBenchReport -bench-report BENCH_replay.json .
