GO ?= go

.PHONY: all build fmt-check vet test race race-full chaos-smoke e2e bench bench-smoke bench-check fuzz cover chaos experiments loc clean

all: build vet test

# CI (.github/workflows/ci.yml) is exactly these targets, in this order:
#   build vet test race race-full chaos-smoke e2e bench-smoke bench-check
# so a red CI step is reproduced locally with `make <step>`.

build:
	$(GO) build ./...

# gofmt prints the files it would change; any output fails the gate.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# ./... includes ./benchmark, the end-to-end benchmark harness.
vet: fmt-check
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# The packages whose full (non -short) suites exercise shared state from
# several goroutines: the coordinator, transport, gateway admission,
# tracing ring, health supervisor, chaos harness, targeting index, journal,
# shard-node assembly.
# The pinned tests run at -count=10 because a race detector run only reports
# the interleavings it happens to see: lock-free reads against the journaled
# commit path, transparency reads against campaign pauses, concurrent
# browses against one campaign's budget line, the supervisor's probe loops
# against a fleet that grows and shrinks under them (directly, and through
# a router's stale-ring refresh), unfenced user reads against a slot's
# promotion and heal, writes against a networked slot's heal, a shard
# node's lock-free ownership checks against ring pushes, and the journal's
# appends and waiters against its flush leader (during an fsync, as the
# batch that follows one, across a crash). The serve path's differential
# test against the per-slot scan runs under the detector too. The four
# zero-alloc pins, the profile-store and feed footprints, generator
# allocation and compaction allocation tripwires (built without the
# detector, whose shadow memory would inflate the heap they measure and
# whose instrumentation allocates), the
# op-table test (client retry policy, server ownership gate and registered
# handlers all equal to rpc's one op table), the row test (each
# RemoteShard method sends its own row of that table) and the sticky-health
# test (a shard whose journal failed reports itself unhealthy, in process
# and over the wire) fail the target if their test disappears.
race-full:
	$(GO) test -race -count=1 ./internal/cluster/ ./internal/workload/ ./internal/obs/... ./internal/rpc/ \
		./internal/gateway/ ./internal/trace/ ./internal/health/ ./internal/chaos/ ./internal/faults/ \
		./internal/index/ ./internal/audience/ ./internal/profile/ ./internal/journal/ ./internal/shardnode/
	$(GO) test -race -count=10 -run 'TestJournaledReadsDuringShipAndImport|TestPauseDuringTransparencyReads' ./internal/platform/
	$(GO) test -race -count=10 -run TestBudgetLineUnderConcurrentBrowse ./internal/delivery/
	$(GO) test -race -count=1 -run TestBrowseMatchesPerSlotScan ./internal/delivery/
	$(GO) test -race -count=10 -run TestSupervisorFollowsTheFleet ./internal/health/
	$(GO) test -race -count=10 -run TestFailoverSupervisorFollowsMembership ./cmd/adplatformd/
	$(GO) test -race -count=10 -run 'TestReadsDuringPromotion|TestHealSlotUnderConcurrentWrites|TestReplicateIssuesToAllOwnersBeforeWaiting|TestConcurrentAdvertiserMutationsKeepOneOrder|TestGatePushesDuringOwnershipChecks' ./internal/cluster/
	$(GO) test -race -count=10 -run 'TestAppendsProceedDuringFsync|TestNextFlushStartsWhenThePreviousPublishes|TestCrashRecoveryUnderConcurrentAppends' ./internal/journal/
	$(GO) test -run=TestSpanZeroAlloc -v ./internal/trace/ | grep -- '--- PASS: TestSpanZeroAlloc'
	$(GO) test -run=TestQueryZeroAlloc -v ./internal/index/ | grep -- '--- PASS: TestQueryZeroAlloc'
	$(GO) test -run=TestBrowseZeroAlloc -v ./internal/delivery/ | grep -- '--- PASS: TestBrowseZeroAlloc'
	$(GO) test -run=TestDecideZeroAlloc -v ./internal/gateway/ | grep -- '--- PASS: TestDecideZeroAlloc'
	$(GO) test -run=TestProfileFootprint -v ./internal/profile/ | grep -- '--- PASS: TestProfileFootprint'
	$(GO) test -run=TestFeedFootprint -v ./internal/delivery/ | grep -- '--- PASS: TestFeedFootprint'
	$(GO) test -run=TestGenerateAllocsPerUser -v ./internal/workload/ | grep -- '--- PASS: TestGenerateAllocsPerUser'
	$(GO) test -run=TestCompactAllocs -v ./internal/platform/ | grep -- '--- PASS: TestCompactAllocs'
	$(GO) test -race -count=1 -run=TestOpTableIsThePolicy -v ./internal/rpc/ | grep -- '--- PASS: TestOpTableIsThePolicy'
	$(GO) test -race -count=1 -run=TestRemoteShardSendsItsOwnRow -v ./internal/cluster/ | grep -- '--- PASS: TestRemoteShardSendsItsOwnRow'
	$(GO) test -race -count=1 -run=TestStickyJournalReportsUnhealthy -v ./internal/cluster/ | grep -- '--- PASS: TestStickyJournalReportsUnhealthy'

# Deterministic fault-injection smokes, each verifying durability,
# exactly-once billing, replica convergence and byte-identical recovery:
# in-process and loopback-RPC schedules (every configured fault kind must
# fire), one- and two-follower chains with a mid-round owner kill plus a
# reshard under traffic, scripted owner kills on two-follower chains, and
# owner kills the health supervisor must recover with no admin call. Each
# replica mode checks replication twice: as the last heal left the chains,
# and after every shard's close/reopen. A failure prints the seed; replay
# it with `go run ./cmd/treads-chaos -seed <n> -v -keep`.
chaos-smoke:
	$(GO) run ./cmd/treads-chaos -seeds 20 -require-coverage
	$(GO) run ./cmd/treads-chaos -net -seeds 5 -workers 2 -require-coverage
	$(GO) run ./cmd/treads-chaos -seeds 20 -replicas 1 -reshard -require-coverage
	$(GO) run ./cmd/treads-chaos -seeds 20 -replicas 2 -reshard -require-coverage
	$(GO) run ./cmd/treads-chaos -seeds 20 -kill-owner
	$(GO) run ./cmd/treads-chaos -seeds 3 -kill-owner -no-admin

# Real-binary and acceptance end-to-end tests: the gateway overload and
# state-equivalence suite, three shard processes with one SIGKILLed and
# recovered from its journal, one browse assembling into one trace across
# a gateway-fronted router and two shard processes, and the binary booting,
# serving and exiting on SIGTERM in single mode (the user_single flag list)
# and as a journaled -shards 3 process.
e2e:
	$(GO) test -race -count=1 -run 'TestOverloadProtectsUserSLO|TestGatewayStateEquivalence' -v ./internal/gateway/
	$(GO) test -race -count=1 -run 'TestMultiProcessClusterE2E|TestMultiProcessTraceAssembly|TestSingleProcessBootE2E' -v ./cmd/adplatformd/

# TREADS_INDEX_BENCH_USERS caps the index benchmarks' population (their
# default is the 1M-user acceptance scale).
bench:
	TREADS_INDEX_BENCH_USERS=100000 $(GO) test -bench=. -benchmem ./...

# Every benchmark once, so none rots (./... picks up a new package's by
# construction); the eleven named ones are perf tripwires and fail the
# target if they disappear. These and the zero-alloc pins in race-full are
# tripwires only: a number that is judged or quoted comes from benchmark/.
bench-smoke:
	TREADS_INDEX_BENCH_USERS=20000 $(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) test -run=NONE -bench=BenchmarkRPC -benchtime=1x ./internal/rpc/ | grep BenchmarkRPC
	$(GO) test -run=NONE -bench=BenchmarkHistogramObserve -benchtime=1x ./internal/obs/ | grep BenchmarkHistogramObserve
	TREADS_INDEX_BENCH_USERS=20000 $(GO) test -run=NONE -bench=BenchmarkIndexPotentialReach -benchtime=1x ./internal/index/ | grep BenchmarkIndexPotentialReach
	$(GO) test -run=NONE -bench=BenchmarkBrowseTreadsDeployment -benchtime=1x ./internal/delivery/ | grep BenchmarkBrowseTreadsDeployment
	$(GO) test -run=NONE -bench=BenchmarkAppendLone -benchtime=1x ./internal/journal/ | grep BenchmarkAppendLone
	$(GO) test -run=NONE -bench=BenchmarkAppendSerial -benchtime=1x ./internal/journal/ | grep BenchmarkAppendSerial
	$(GO) test -run=NONE -bench=BenchmarkCompact -benchtime=1x ./internal/platform/ | grep BenchmarkCompact
	$(GO) test -run=NONE -bench=BenchmarkClusterCreateCampaignJournaled -benchtime=1x ./internal/cluster/ | grep BenchmarkClusterCreateCampaignJournaled
	$(GO) test -run=NONE -bench=BenchmarkReshardCutover -benchtime=1x ./internal/cluster/ | grep BenchmarkReshardCutover
	$(GO) test -run=NONE -bench=BenchmarkFailoverDetectToPromote -benchtime=1x ./internal/cluster/ | grep BenchmarkFailoverDetectToPromote
	$(GO) test -run=NONE -bench=BenchmarkBootShard -benchtime=1x ./cmd/adplatformd/ | grep BenchmarkBootShard

# A live traced run of the paper's deployment (614 Treads) on the real
# multi-process topology, about 45 s cold: it crosses every seam
# benchmark/shims.go interposes on and runs the harness's output checks —
# every impression against regenerated ground truth, acked == feed ==
# report, core.false_reveals = 0, span self-times summing to the client
# span — so a change that bills twice or shows a wrong ad fails here. The
# harness writes to a file, not a pipe, so its exit status is the recipe's;
# the last stdout line is the JSON result. A seam the shims no longer see
# does not fail the harness, it reads as a layer with no spans, so a
# self-time of exactly 0 is refused too.
bench-check:
	mkdir -p .bench_build
	bash benchmark/run.sh --workload treads_cluster --seed 1 --seconds 2 --trace 1 > .bench_build/bench-check.out
	tail -n 1 .bench_build/bench-check.out | grep -q '"correct":true'
	tail -n 1 .bench_build/bench-check.out | grep -q '"failed":0[,}]'
	! tail -n 1 .bench_build/bench-check.out | grep -q 'self_us":{"value":0,'

# Short fuzzing pass over every fuzz target. The platform snapshot target is
# seeded with whole state documents, and the fuzzer's default of a minute
# spent minimizing each input that reaches new code would leave it a dozen
# executions in its 15 s; with minimization off it makes ~100 000. The rpc
# target (every op of the table, each input against a fresh journaled shard)
# stalls the same way and makes ~5 000. The key-file, traceparent and admin
# JSON targets have seeds of a few hundred bytes and need no such flag.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=15s ./internal/attr/
	$(GO) test -fuzz=FuzzRequiredAttr -fuzztime=15s ./internal/attr/
	$(GO) test -fuzz=FuzzIndexEquivalence -fuzztime=15s ./internal/audience/
	$(GO) test -run=NONE -fuzz=FuzzProfileOps -fuzztime=15s ./internal/profile/
	$(GO) test -fuzz=FuzzParseToken -fuzztime=15s ./internal/core/
	$(GO) test -fuzz=FuzzDecodeStegoImage -fuzztime=15s ./internal/core/
	$(GO) test -fuzz=FuzzDecodeCreativeBody -fuzztime=15s ./internal/core/
	$(GO) test -fuzz=FuzzReadRecord -fuzztime=15s ./internal/journal/
	$(GO) test -fuzz=FuzzReadSnapshot -fuzztime=15s ./internal/journal/
	$(GO) test -run=NONE -fuzz=FuzzReadPlatformSnapshot -fuzztime=15s -fuzzminimizetime=0s ./internal/platform/
	$(GO) test -run=NONE -fuzz=FuzzRPCRequest -fuzztime=15s -fuzzminimizetime=0s ./internal/rpc/
	$(GO) test -run=NONE -fuzz=FuzzParseKeyFile -fuzztime=15s ./internal/gateway/
	$(GO) test -run=NONE -fuzz=FuzzParseTraceparent -fuzztime=15s ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzClusterAdminJSON -fuzztime=15s ./internal/httpapi/

cover:
	$(GO) test -cover ./...

# Long deterministic fault-injection sweep: 200 in-process schedules plus
# 50 over real loopback RPC. A violation prints the failing seed; replay
# it with `go run ./cmd/treads-chaos -seed <n> -v -keep`.
chaos:
	$(GO) run ./cmd/treads-chaos -seeds 200 -require-coverage
	$(GO) run ./cmd/treads-chaos -net -seeds 50 -workers 2 -require-coverage

# Regenerate every table/figure of the paper.
experiments:
	$(GO) run ./cmd/treads-validate
	$(GO) run ./cmd/treads-cost
	$(GO) run ./cmd/treads-privacy
	$(GO) run ./cmd/treads-audit

# Non-test Go lines per package, then two totals (everything, and without
# the frozen benchmark/ harness): the figure a simplicity issue quotes, so a
# before/after count is this target run on the two commits.
loc:
	@total=0; bench=0; for pkg in $$($(GO) list -f '{{.Dir}}' ./... | sed 's|^$(CURDIR)|.|'); do \
		n=$$(ls $$pkg/*.go | grep -v _test | xargs cat | wc -l); \
		printf '%6d %s\n' "$$n" "$$pkg"; \
		total=$$((total + n)); [ "$$pkg" = ./benchmark ] && bench=$$n; \
	done; \
	printf '%6d total\n%6d total without ./benchmark\n' "$$total" "$$((total - bench))"

clean:
	$(GO) clean ./...
