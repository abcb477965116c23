GO ?= go

.PHONY: ci build fmt vet test race flake bench-smoke fuzz-smoke loc

# The tier-1 gate: everything a PR must keep green. Performance is
# gated separately, by the benchmark of record (benchmark/, declared in
# BENCHMARK.json), which the pipeline runs against the parent commit.
# The last line of every CI log is the tracked non-test line count.
ci: build fmt vet test race flake bench-smoke
	@printf 'make loc: '; $(MAKE) -s loc

build:
	$(GO) build ./...

# Every tracked Go file is gofmt-clean (.bench_build is the benchmark's
# scratch copy, not source).
fmt:
	@out=$$(gofmt -l . | grep -v '^\.bench_build/'); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The whole suite under the race detector: the multi-VCI engine makes
# every layer reachable from concurrent goroutines, so everything runs
# race-checked (including the ThreadMultiple chaos rounds).
race:
	$(GO) test -race ./...

# A first, cheap slice of "tier-1 x 20" (ROADMAP item 2): the tests that
# guard the single-writer charge ledger and its cross-goroutine dump,
# the allocation guards, which have flaked before, the shm ring tables
# published while a consumer polls, the SpMV instruction-count guard
# that failed 10 runs in 40 while it compared two jittering latencies,
# and the single-writer observers — registry, histograms, flight ring,
# request pool, region table: their single-vs-shared differentials,
# their 8-writer shared modes, and the 8-rank run that snapshots and
# dumps while peers deposit — and the two lock-free handshakes, where a
# lost wakeup is a hang: the shm ring as an SPSC queue (1e5 messages
# through two cells, its park and wake counts, sibling producers) and
# the fabric's waiter gate (1e5 WakeVCI/WaitEventVCI and
# deposit/WaitRecv ping-pongs) — twenty times each, then five times
# race-checked at GOMAXPROCS 1, 2 and 8 (the race detector is the
# checker of the single-writer rule) — and lending, where a send
# completes on another rank's goroutine: the netmod rendezvous and shm
# handoff copy counts, the lent-send allocation guard, the releaser at
# every consume site, the lent-vs-captured differential's seeds, and the
# rendezvous deadlock the watchdog must name — and the LJ proxy's host
# kernels: the cell-sorted force kernel against its linked-list
# reference, the golden trajectory at GOMAXPROCS 1, 2 and 8, and the
# allocation-free timestep — and how a rank waits: yields instead of
# parks on one P (ping-pong and Allreduce), and a wait nobody ends that
# still parks exactly once and still ends on an abort — and the small-
# message path: slab Requests that stay distinct, one-cell shm delivery
# against the cost model and across cell sizes, the drain's single
# aggregate wake, and lanes racing to a peer's first touch — and the
# fabric's one receive-side lookup: what every post, probe and matched
# probe charges and counts, each charged exactly what its lane's engine
# counted — and one lane per communicator: every send, receive, probe,
# partitioned chunk and no-match message of a communicator rides one
# VCI — and the ch4 device's one receive descriptor: what every receive
# shape and IsendNoCopy charge, and a recycled wildcard box that must
# not steal later messages — and wildcards on every lane count: a
# receive or probe with both wildcards must find every message of its
# communicator, at 1, 2, 4 and 8 lanes, with and without
# MPI_THREAD_MULTIPLE — and what
# every one-sided call charges its origin on both devices — and MPI's
# progress rule: a passive target blocked in any call (Win.Free,
# WinCreate, Split, Create, Barrier, Recv) still serves its origin's
# flush, a rank blocked on a full shm ring drains its own rings, and an
# abort ends every creation collective and every full-ring wait — and
# the one park site: a rank waiting for a window lock or a free shm cell
# parks in its device's event loop, so the watchdog sees a lock
# deadlock on both devices and contended lock rounds lose no wake-up —
# and the ledger's settle points and check chains: every failing
# argument of the send and one-sided check chains charges the checks
# up to it (CheckChainPrefix), an arrival-order receive names its
# sender (NoMatchStatusSource), and a parked rank's goroutine stack
# stays small (RankStackFootprint, in a child process; skipped under
# -race) — and the one active-message packet set for one-sided
# operations: three origins' fetch-and-adds on one counter fetch no
# value twice on either device, under Lock and LockAll, contiguous and
# derived (GetAccumulateAtomic), and contiguous and derived accumulates
# on the same bytes both fold under the region lock, so -race sees no
# race and no update is lost (AccumulateMixedLayouts) — and the packet
# set under MPI_THREAD_MULTIPLE: two goroutines of one rank issuing
# derived accumulates and fetch-and-adds share its counters, sequence
# numbers and fetch table, so only -race at several GOMAXPROCS catches
# a lost guard (AMThreadMultiple) — and the epochs the MPI layer owns
# over both devices' protocols: what every synchronization call
# charges and records, at 1, 2 and 4 ranks (RmaSyncChargeTable) — and
# dynamic-window targets: a detached or overrunning address is an
# error at the origin, not a panic on a peer's goroutine
# (DynamicWindowTargetsChecked) — and one object per operation: a ch4
# receive's or lent send's box holds its request, two goroutines of a
# rank free each other's under MPI_THREAD_MULTIPLE (BoxRequests), a
# steady-state one takes nothing from the request pool, Free recycles
# through the request's driver (FreeRecyclesThroughDriver), and no
# completion builds a closure (OperationOwnsRequestAllocs), a pending
# flush request still counts as a request get
# (FlushRequestCountsItsRequest) — and
# Counters.Cycles is the clock's advance at every CPI
# (CountersCyclesAreCharged) — and the registry's one list: its walk
# visits every counter and histogram once, paired live-to-frozen
# (WalkVisitsEveryCounter), a merge sums all but the high waters
# (MergeSumsAndMaxes), the Prometheus export prints every counter
# (PromExportsEveryCounter), and PSCW calls open their sync spans
# (PSCWTraced). Zero failures. The ledger's tests,
# the shared clock's among them, live in ./internal/proc with the one
# ledger type; ./internal/vtime holds only the units of time and has no
# test to run.
FLAKE_RUN = 'Ledger|DumpState|ZeroAlloc|AllocFree|SteadyStateAllocs|FeederPublished|FirstTouch|LockTouch|SpmvDeclaredShape|SingleVsShared|Shared.*Concurrent|SharedWriters|ForeignReader|TailFlush|WrapOrder|WhilePeersRun|SnapshotDuringDeposits|Region|RegisterWhilePut|ShareReaches|SPSC|NoMutex|WakePerMessage|SharedSiblings|WaiterGate|EventsEquals|Lent|RendezvousDeadlock|CopyCounts|CompletesAtReturn|ForcesMatchReference|RunGolden|TimestepAllocs|YieldBeforePark|WaitParksAfterYields|SlabRequests|OneCell|DrainWakesAggregate|DepositLocalAndWake|MatchChargeTable|OneLanePerComm|RecvChargeTable|WildcardStaleReplica|WildcardEveryLaneCount|RmaChargeTable|BlockedCallsProgress|FullRingDrainsOwnRings|AbortUnblocksCommCreation|AbortUnblocksFullRing|LockAllExclusivePhases|WatchdogTripsOnDeadlock|CheckChainPrefix|NoMatchStatusSource|RankStackFootprint|GetAccumulateAtomic|AccumulateMixedLayouts|AMThreadMultiple|RmaSyncChargeTable|DynamicWindowTargetsChecked|BoxRequests|FreeRecyclesThroughDriver|OperationOwnsRequestAllocs|FlushRequestCountsItsRequest|CountersCyclesAreCharged|WalkVisitsEveryCounter|MergeSumsAndMaxes|PromExportsEveryCounter|PSCWTraced|TraceGolden|CreationChargesErrorCheckOnlyWhenChecking|PSCWEpochFlushSample'
FLAKE_PKGS = . ./internal/proc ./internal/instr ./internal/hist ./internal/shm ./internal/bench ./internal/flight ./internal/metrics ./internal/request ./internal/fabric ./internal/ch4 ./internal/md

flake:
	$(GO) test -count=20 -run $(FLAKE_RUN) $(FLAKE_PKGS)
	$(GO) test -race -cpu 1,2,8 -count=5 -run $(FLAKE_RUN) $(FLAKE_PKGS)

# One iteration of every benchmark: catches bit-rot in the figure
# regeneration paths and allocation regressions (all benches report
# allocs) without the cost of a full run.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Short fuzz runs, 10 s for every fuzz target of every package, found
# with go test -list so a new target cannot be left out: binned vs
# linear matching must agree and the engine never lose a message,
# on-node (shared window) and off-node (fabric RDMA) Put, Accumulate
# and Get must leave identical bytes, lent vs captured netmod sends and
# staged vs handed-off shm sends must deliver and charge identically,
# every blocking collective must agree with a Send/Recv-only reference,
# wildcard receives must consume the same messages at every lane count,
# vector pack/unpack and subarray bounds must hold, and the cell-sorted
# LJ force kernel must match its linked-list reference bit for bit.
fuzz-smoke:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "$$pkg $$target"; \
			$(GO) test -run xxx -fuzz "^$$target\$$" -fuzztime 10s $$pkg || exit 1; \
		done; \
	done

# Lines of Go that are neither tests nor the benchmark: the tracked
# output of the "least code" aim (ROADMAP aim 2).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
