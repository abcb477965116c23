GO ?= go

.PHONY: ci build vet test race bench-smoke fuzz-smoke bench-json benchdiff loc

# The tier-1 gate: everything a PR must keep green. When both the
# baseline and current benchmark documents exist, the perf gate runs
# too: benchdiff fails the build on a >10% hot-path regression.
ci: build vet test race bench-smoke
	@if [ -f BENCH_PR9.json ] && [ -f BENCH_PR10.json ]; then \
		$(MAKE) benchdiff; \
	else \
		echo "ci: benchdiff skipped (need BENCH_PR9.json and BENCH_PR10.json)"; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The whole suite under the race detector: the multi-VCI engine makes
# every layer reachable from concurrent goroutines, so everything runs
# race-checked (including the ThreadMultiple chaos rounds).
race:
	$(GO) test -race ./...

# One iteration of every benchmark: catches bit-rot in the figure
# regeneration paths and allocation regressions (all benches report
# allocs) without the cost of a full run.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Machine-readable benchmark summary: one iteration of every benchmark
# (ns/op, allocs/op), the reference-exchange metric aggregates with
# their latency histogram summaries (post-match, unexpected residency,
# ...), the multi-VCI scaling sweep, the nonblocking-collectives
# sweep, the staged-vs-handoff shm sweep, the one-sided
# zerocopy-vs-staged sweep, the 10K-rank scale sweep (lazy vs
# eager peer state), and the POP efficiency section (per-device
# exchange hierarchy + strong-scaling np sweep), written to
# BENCH_PR10.json for cross-PR comparison.
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_PR10.json

# Cross-PR perf gate: median-aware comparison of the previous PR's
# benchmark document against this one; exits nonzero when a hot-path
# metric (sends, receives, exchange, collectives, handoff, rma)
# regressed by more than 10%, or when POP Parallel Efficiency drops
# by more than 2 points on any shared efficiency metric.
benchdiff:
	$(GO) run ./cmd/benchdiff BENCH_PR9.json BENCH_PR10.json

# Short differential-fuzz runs: binned vs linear matching must agree,
# staged vs zero-copy shm RMA must deliver identical bytes, and every
# blocking collective must agree with a Send/Recv-only reference.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzBinnedMatchesLinear -fuzztime 10s ./internal/match
	$(GO) test -run xxx -fuzz FuzzRmaStagedZeroCopy -fuzztime 10s .
	$(GO) test -run xxx -fuzz FuzzPartitionedVsPlain -fuzztime 10s .
	$(GO) test -run xxx -fuzz FuzzBlockingCollectives -fuzztime 10s .

# Lines of Go that are neither tests nor the benchmark: the tracked
# output of the "least code" aim (ROADMAP aim 2).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
