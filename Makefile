# Make targets are the single entry points for humans and CI
# (.github/workflows/ci.yml calls exactly these).

GO ?= go

.PHONY: build test test-full test-faults test-relay test-server test-obs test-stress test-shard fuzz race bench bench-smoke bench-compare bench-baseline bench-stress bench-stress-compare fmt fmt-check vet examples examples-full validate-scenarios

build:
	$(GO) build ./...

# Fast tier: the CI gate. Heavy workload campaigns downshift or skip
# under -short; run test-full for the complete suite. perfbench is a
# nested module that the root ./... skips, so its unit tests run here
# too: an internal API change that breaks the benchmark fails CI.
test:
	$(GO) test -short ./...
	cd perfbench && $(GO) test ./...

test-full:
	$(GO) test ./...

# Dependability gate: the full golden-artifact invariance harness
# (every built-in spec and shipped scenario byte-identical at
# -parallel 1 vs 8) plus a short D1 crash/recover campaign run through
# the real CLI.
test-faults:
	$(GO) test -run 'Golden' -v ./internal/experiments
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/ethrepro -only D1 -scale small -repeats 2 -parallel 4 -out "$$dir/d1"

# Relay gate: the full protocol-conformance suite (liveness,
# duplicate-fetch, bandwidth-accounting and determinism invariants for
# every registered relay protocol), the R1/R2 + relay-compare golden
# invariance harness, a `go test -cover` summary for internal/p2p/...,
# and one R1 shoot-out campaign run through the real CLI.
test-relay:
	$(GO) test -v ./internal/p2p/relay/
	$(GO) test -run 'TestGoldenRelaySpecsParallelInvariance|TestGoldenScenarioArtifactsParallelInvariance/relay-compare.json' -v -timeout 30m ./internal/experiments
	$(GO) test -cover ./internal/p2p/...
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/ethrepro -only R1 -scale small -repeats 2 -parallel 4 -out "$$dir/r1"

# Campaign-service gate: the store conformance suite and the HTTP
# handler/lifecycle suite under the race detector (SSE, queueing and
# cancellation are concurrency-heavy), the HTTP-vs-CLI byte-identity
# golden gate, and the cmd/ethserve end-to-end smoke test (boot the
# binary path, submit over HTTP, fetch artifacts, digest-verify the
# run directory with ethanalyze).
test-server:
	$(GO) test -race -short -v ./internal/store/ ./internal/server/ ./cmd/ethserve/
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/ethrepro -only T1 -repeats 2 -out "$$dir/run"; \
	$(GO) run ./cmd/ethanalyze -verify "$$dir/run"

# Observability gate: the tracing-on-vs-off golden invariance harness
# (byte-identical artifacts and equal Merkle roots with the tracer
# attached), the obs instrument/tracer suites, and the server
# metrics/SSE/pprof handler tests — concurrency-heavy parts under the
# race detector.
test-obs:
	$(GO) test -run 'TestGoldenTracingInvariance|TestTelemetry' -v ./internal/experiments
	$(GO) test -race -v ./internal/obs/
	$(GO) test -race -run 'Metrics|SSE|Healthz|PProf|Profile|Telemetry|RetryAfter|Backpressure' -v ./internal/server/
	$(GO) test -run 'Telemetry|Trace' -v ./cmd/ethrepro/ ./cmd/ethanalyze/

# Scale gate for the struct-of-arrays node core. Short tier: the
# 10k-node bytes-per-node heap ceiling. Full tier: the 100k-node
# scenario at its full size, byte-identical at -parallel 1 vs 8
# (opt-in via STRESS100K, which this target sets), plus the committed
# BenchmarkStress100k figures (BENCH_stress.json provenance).
test-stress:
	$(GO) test -run TestBytesPerNodeCeiling -v ./internal/p2p/
	STRESS100K=1 $(GO) test -run 'TestGoldenStress100kParallelInvariance|TestGoldenShardStress100kInvariance' -v -timeout 90m ./internal/experiments

# Sharded-execution gate. The conductor's window-loop invariants and
# the campaign-level shard-count invariance suites run under the race
# detector — they drive the cross-shard merge, the phase barriers and
# the lane-local pools with real concurrency — then the shard-axis
# golden harness runs its exhaustive acceptance sweep (SHARDGOLDEN=full:
# every builtin spec and shipped scenario, shards {1,2,6} × -parallel
# {1,8} byte-identical run directories; the plain `go test` tiers
# check the grid corners on the short core instead, to stay inside
# the package timeout). The full-size 100k sharded golden lives in
# test-stress (STRESS100K).
test-shard:
	$(GO) test -race -run 'TestConductor' -v ./internal/sim/
	$(GO) test -race -run 'TestSharded' -v ./internal/p2p/ ./internal/core/
	SHARDGOLDEN=full $(GO) test -run 'TestGoldenShard' -v -timeout 90m ./internal/experiments

# Fuzz lane: run every fuzz target for a bounded burst on top of the
# committed seed corpora (which already execute as regular tests).
fuzz:
	$(GO) test -fuzz FuzzCompactReconstruct -fuzztime 30s ./internal/p2p/relay/
	$(GO) test -fuzz FuzzAdjacencyChurn -fuzztime 30s ./internal/p2p/
	$(GO) test -fuzz FuzzScenarioParse -fuzztime 30s ./internal/scenario/
	$(GO) test -fuzz FuzzSweepExpand -fuzztime 30s ./internal/scenario/

race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# One iteration per benchmark: proves every target still executes.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# Run every benchmark three times, keep the best-of-3 envelope and
# diff its floor against the committed baseline; fails on any >20%
# ns/op or allocs/op regression (improvements always pass). Gating on
# the minimum of three runs keeps one noisy scheduler hiccup from
# failing CI. BenchmarkEngineDispatch gates the observability
# tentpole: a tracer-disabled engine must show no dispatch regression.
# The relay and sharded allocation ceilings ride along for the hot
# paths.
bench-compare:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp" "$$tmp.json"' EXIT; \
	$(GO) test -bench=. -benchmem -benchtime=1x -count=3 -run='^$$' . > "$$tmp"; \
	$(GO) run ./cmd/benchjson -best-of 3 < "$$tmp" > "$$tmp.json"; \
	$(GO) run ./cmd/benchjson -compare BENCH_baseline.json "$$tmp.json"
	$(GO) test -run TestRelayAllocationCeiling -v ./internal/p2p/relay/
	$(GO) test -run TestShardedAllocationCeiling -v ./internal/p2p/

# Regenerate the committed benchmark snapshot (set BENCH_NOTE to record
# the occasion). Two steps so a failing benchmark aborts instead of
# being laundered into a partial snapshot.
BENCH_NOTE ?= refreshed baseline
bench-baseline:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' . > "$$tmp"; \
	$(GO) run ./cmd/benchjson -note "$(BENCH_NOTE)" < "$$tmp" > BENCH_baseline.json; \
	echo "wrote BENCH_baseline.json"

# Regenerate the committed 100k-tier snapshot (BenchmarkStress100k /
# BenchmarkStress100kSharded: events/sec, bytes/node and
# stalled_lane_windows for the full stress-100k scenario). Run on a
# quiet machine; the figures are provenance for the scale tier — the
# gate against them is bench-stress-compare.
bench-stress:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	STRESS100K=1 $(GO) test -bench BenchmarkStress100k -benchmem -benchtime=1x -run='^$$' -timeout 30m . > "$$tmp"; \
	$(GO) run ./cmd/benchjson -note "$(BENCH_NOTE)" < "$$tmp" > BENCH_stress.json; \
	echo "wrote BENCH_stress.json"

# Diff a fresh 100k-tier run against the committed BENCH_stress.json.
# On top of the ns/op, B/op and allocs/op gates this is where
# stalled_lane_windows is enforced: the sharded conductor's
# scheduling-quality metric is a deterministic event count, so any
# >20% growth over the committed figure means the lookahead bounds or
# the deadline computation regressed, even if wall-clock stayed flat.
bench-stress-compare:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp" "$$tmp.json"' EXIT; \
	STRESS100K=1 $(GO) test -bench BenchmarkStress100k -benchmem -benchtime=1x -run='^$$' -timeout 30m . > "$$tmp"; \
	$(GO) run ./cmd/benchjson < "$$tmp" > "$$tmp.json"; \
	$(GO) run ./cmd/benchjson -compare BENCH_stress.json "$$tmp.json"

# Build and execute every example program, downscaled (-short): each
# is a documented entry point, so CI proves they all still run.
examples:
	@set -e; for d in examples/*/; do \
		[ -f "$$d/main.go" ] || continue; \
		echo "== go run ./$$d -short"; \
		$(GO) run "./$$d" -short; \
	done

# Full-size examples: every example at its full (non -short) scale,
# including the complete 10,000-node stress scenario.
examples-full:
	@set -e; for d in examples/*/; do \
		[ -f "$$d/main.go" ] || continue; \
		echo "== go run ./$$d"; \
		$(GO) run "./$$d"; \
	done

# Parse, validate and compile every shipped scenario file (sweep
# expansion included) without running the campaigns.
validate-scenarios:
	@set -e; for f in examples/scenarios/*.json; do \
		echo "== validate $$f"; \
		$(GO) run ./cmd/ethrepro -scenario "$$f" -list >/dev/null; \
	done

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
