# Standard entry points. `make verify` is the CI tier: static vetting
# (go vet, the project's own mtlint analyzers, gofmt) plus the full test
# suite under the race detector (the Suite's lazy caches and concurrent
# sweeps must stay clean).

GO ?= go

.PHONY: build test verify lint racecheck bench benchsim benchserve benchcluster benchadvise fuzz golden faultcheck servecheck clustercheck tracecheck storecheck advisecheck perfcheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Project-specific static analysis (see DESIGN.md §8 and `go run
# ./cmd/mtlint -analyzers`): hotpath, probeguard, determinism, stdlibonly
# plus the concurrency suite — lockguard, leakcheck, atomiccheck — and
# the stale-suppression audit. The second run is the shared-state census
# over the serving tier: any shared struct field there with no provable
# guard fails the build.
lint:
	$(GO) run ./cmd/mtlint ./...
	$(GO) run ./cmd/mtlint -census ./internal/serve/... ./internal/store ./internal/retry ./internal/cluster ./internal/obs ./internal/advise

# Race tier: the serving, durability, cluster and telemetry suites under
# the race detector. -short trims the chaos matrix to one scenario so the
# tier stays CI-sized; `make verify` still runs everything under -race at
# full length.
racecheck:
	$(GO) test -race -short ./internal/serve/... ./internal/store ./internal/retry ./cmd/mtserve ./internal/cluster ./internal/obs

verify: faultcheck servecheck clustercheck tracecheck storecheck advisecheck perfcheck
	$(GO) vet ./...
	$(GO) run ./cmd/mtlint ./...
	$(GO) run ./cmd/mtlint -census ./internal/serve/... ./internal/store ./internal/retry ./internal/cluster ./internal/obs ./internal/advise
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) test -race -timeout 30m ./...

# Service tier (DESIGN.md §10): build mtserve, run the API's differential
# / drain / backpressure tests plus the remote-sweep byte-identity test,
# then a loadgen smoke — an in-process server under 16 concurrent
# clients; it hard-fails on any error or any response diverging from the
# direct library result, and asserts /healthz and /metrics coherence.
servecheck:
	$(GO) build -o /dev/null ./cmd/mtserve
	$(GO) test ./internal/serve/... ./cmd/mtserve
	$(GO) test ./cmd/experiments -run 'TestRemote'
	$(GO) run ./cmd/mtserve -loadgen -clients 16 -rounds 2 >/dev/null

# Regenerate BENCH_serve.json: service throughput/latency under the full
# 64-client load with correctness gating.
benchserve:
	$(GO) run ./cmd/mtserve -loadgen -clients 64 -rounds 4 -bench BENCH_serve.json >/dev/null

# Cluster tier (DESIGN.md §11): build mtcoord, run the coordinator's
# differential suite (cluster sweep vs direct library),
# the chaos matrix (kill / partition / restart a worker mid-sweep with
# zero lost or duplicated cells), the shard-key goldens, and the
# experiments-level artifact byte-identity test against a coordinator
# with four workers including a kill-one-worker pass.
clustercheck:
	$(GO) build -o /dev/null ./cmd/mtcoord
	$(GO) test ./internal/cluster ./internal/loadgen
	$(GO) test ./cmd/experiments -run 'TestClusterSweepArtifactsMatchLocal'

# Regenerate BENCH_cluster.json: 1->4 worker scaling of the coordinator
# pipeline with byte-identity gating (hard-fails under 3x at 4 workers).
benchcluster:
	$(GO) run ./cmd/mtcoord -bench BENCH_cluster.json -bench-workers 4 >/dev/null

# Telemetry tier (DESIGN.md §7): the obs primitives (log-scale histogram
# goldens and quantiles, bus fan-out with slow-subscriber drop, bounded
# span store, Perfetto export), then the end-to-end contracts — SSE job
# streams deliver the terminal state without polling (with and without
# telemetry enabled), trace IDs propagate coordinator -> worker across
# lease grants and steals, and a kill-one-worker chaos sweep still
# exports a single merged Perfetto trace.
tracecheck:
	$(GO) test ./internal/obs
	$(GO) test ./internal/serve -run 'TestJobEvents|TestTraceEndpoint'
	$(GO) test ./internal/cluster -run 'TestClusterTrace'

# Robustness drills (DESIGN.md §9): the fault-injection matrix (every
# corruption class at every byte offset must be detected, never silently
# simulated), journal crash/resume behaviour, the engine guard's
# watchdog, and the kill-and-resume byte-identity test.
faultcheck:
	$(GO) test ./internal/resilience
	$(GO) test ./internal/trace -run 'TestMTT2|TestReadRejects|TestWriteFile'
	$(GO) test ./cmd/experiments -run 'TestKillAndResume|TestResume|TestFreshRun|TestRunStepBudget'

# Durability tier (DESIGN.md "Durable results & delivery"): the MTS1
# store suite (format goldens, recovery, quarantine, compaction,
# write-behind), the retry/backoff core, the webhook dispatcher
# (journaled delivery, breaker, restart resume), the store fault matrix
# (every corrupting class x offset detected, zero silent), and the
# kill -9 warm-restart differential against a real subprocess daemon.
storecheck:
	$(GO) test ./internal/store ./internal/retry ./internal/serve/webhook
	$(GO) test ./internal/resilience -run 'TestStoreFaultMatrix|TestStoreQuarantineMatrix|TestStoreTornTail'
	$(GO) test ./cmd/mtserve -run 'TestKillDashNine'
	$(GO) test ./internal/serve -run 'TestStoreTier|TestWebhook'
	$(GO) test ./internal/cluster -run 'TestClusterStore|TestClusterWebhook'

bench:
	$(GO) test -bench=. -benchmem .

# Online adaptive placement tier (DESIGN.md §16): the advisor package
# (ONLINE name grammar, policies, recommendation math), the engines'
# online differential suite (interval-off == static, cycle for cycle, on
# both engines) and checkpoint round-trips, the guard's online path, the
# /v1/advise API differentials on worker and coordinator, and the phased
# crossover smoke — online must beat the best static placement on the
# phase-changing workload with the migration penalty charged, and every
# cell of its grid must match the reference engine.
advisecheck:
	$(GO) test ./internal/advise
	$(GO) test ./internal/sim -run 'TestOnline|TestCheckpoint|TestRunOnline'
	$(GO) test ./internal/resilience -run 'TestEngineGuardRunOnline'
	$(GO) test ./internal/serve -run 'TestAdvise|TestSimulateOnline|TestSweepOnline'
	$(GO) test ./internal/cluster -run 'TestClusterAdvise'
	$(GO) test -short ./cmd/experiments -run 'TestAdvise'

# Regenerate BENCH_advise.json: the static-vs-online kernel grid through
# /v1/sweep plus the phased-workload migration-cost crossover. Hard-fails
# unless online beats the best static placement somewhere in the swept
# (interval, cost) grid.
benchadvise:
	$(GO) run ./cmd/experiments -advise BENCH_advise.json -scale 0.25

# Regenerate BENCH_sim.json: engine throughput bare and probed, plus the
# memoized and guarded sweep timings and the journal cost.
benchsim:
	$(GO) run ./cmd/experiments -benchsim BENCH_sim.json

# The benchmark of record (perfbench/, its own Go module, so the root
# `go build ./...` and `go test ./...` never compile it): vet it and run
# its smoke tests against the current APIs.
perfcheck:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Quick fuzz pass over the simulation engines (CI smoke; crank -fuzztime
# for a real session).
fuzz:
	$(GO) test ./internal/sim -fuzz FuzzEngine -fuzztime 30s

# Re-lock the golden files after an intentional result change.
golden:
	UPDATE_GOLDEN=1 $(GO) test ./internal/core -run TestGolden
