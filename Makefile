# Standard entry points. `make verify` is the CI tier: static vetting
# (go vet, the project's own mtlint analyzers, gofmt) plus the full test
# suite under the race detector (the Suite's lazy caches and concurrent
# sweeps must stay clean).

GO ?= go

.PHONY: build test verify lint racecheck bench benchadvise fuzz golden faultcheck servecheck clustercheck tracecheck storecheck advisecheck perfcheck benchsmoke loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Production Go lines (non-test, outside perfbench/ and testdata/, and
# the gitignored benchmark build dir): the count simplicity changes
# record their net line delta against. Not a gate.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' | xargs cat | wc -l

# Project-specific static analysis (see DESIGN.md §8 and `go run
# ./cmd/mtlint -analyzers`): hotpath, probeguard, determinism, stdlibonly
# plus the concurrency suite — lockguard, leakcheck, atomiccheck — and
# the stale-suppression audit. The second run is the shared-state census
# over the serving tier: any shared struct field there with no provable
# guard fails the build.
lint:
	$(GO) run ./cmd/mtlint ./...
	$(GO) run ./cmd/mtlint -census ./internal/serve/... ./internal/store ./internal/retry ./internal/cluster ./internal/obs ./internal/advise ./internal/memo

# Race tier: the serving, durability, cluster and telemetry suites and
# the memo table under them, under the race detector. -short trims the
# chaos matrix to one scenario so the tier stays CI-sized; `make verify`
# still runs everything under -race at full length.
racecheck:
	$(GO) test -race -short ./internal/serve/... ./internal/store ./internal/retry ./cmd/mtserve ./internal/cluster ./internal/obs ./internal/memo

verify: faultcheck servecheck clustercheck tracecheck storecheck advisecheck perfcheck benchsmoke
	$(GO) vet ./...
	$(GO) run ./cmd/mtlint ./...
	$(GO) run ./cmd/mtlint -census ./internal/serve/... ./internal/store ./internal/retry ./internal/cluster ./internal/obs ./internal/advise ./internal/memo
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) test -race -timeout 30m ./...

# Service tier (DESIGN.md §10): build mtserve, run the API's differential
# / drain / backpressure tests — among them TestConcurrentClientsMatchLibrary,
# eight concurrent clients over the catalog that hard-fail on any error,
# any reply diverging from the direct library result, any cell simulated
# twice, or /healthz and /metrics disagreeing with the load — plus the
# remote-sweep byte-identity test.
servecheck:
	$(GO) build -o /dev/null ./cmd/mtserve
	$(GO) test ./internal/serve/... ./cmd/mtserve
	$(GO) test ./cmd/experiments -run 'TestRemote'

# Cluster tier (DESIGN.md §11): build mtcoord, run the coordinator's
# differential suite (cluster sweep vs direct library), the dispatch
# tests (four single-slot workers must all be inside a cell at once; no
# cell may start with another waiting in its worker's queue; a worker's
# refusal fails or moves the cell by its status), the chaos matrix
# (kill / partition / restart a worker mid-sweep with zero lost or
# duplicated cells), the shard-key goldens, and the experiments-level
# artifact byte-identity test against a coordinator with four workers
# including a kill-one-worker pass.
clustercheck:
	$(GO) build -o /dev/null ./cmd/mtcoord
	$(GO) test ./internal/cluster ./internal/loadgen
	$(GO) test ./cmd/experiments -run 'TestClusterSweepArtifactsMatchLocal'

# Telemetry tier (DESIGN.md §7): the obs primitives (log-scale histogram
# goldens, bus fan-out with slow-subscriber drop, bounded
# span store, Perfetto export), then the end-to-end contracts — SSE job
# streams deliver the terminal state without polling (also for a job
# that publishes nothing), a watched sweep's sample events add up to its
# cells' results, trace IDs propagate coordinator -> worker on every
# dispatched cell, and a kill-one-worker chaos sweep still exports a
# single merged Perfetto trace.
tracecheck:
	$(GO) test ./internal/obs
	$(GO) test ./internal/serve -run 'TestJobEvents|TestTraceEndpoint'
	$(GO) test ./internal/cluster -run 'TestClusterTrace'

# Robustness drills (DESIGN.md §9): the fault-injection matrix (every
# corruption class at every byte offset must be detected, never silently
# simulated), the engine guard's watchdog, and the per-cell
# kill-and-resume tests of experiments -store-dir (byte-identical
# artifacts, no reuse across scales, one store format shared with
# mtserve).
faultcheck:
	$(GO) test ./internal/resilience
	$(GO) test ./internal/trace -run 'TestMTT2|TestReadRejects|TestWriteFile'
	$(GO) test ./cmd/experiments -run 'TestKillAndResume|TestStoreServesNothingAcrossScales|TestStoreSharedWithServer|TestRunStepBudget'

# Durability tier (DESIGN.md §15 "Durable results"): the MTS1 store
# suite (format goldens, recovery, quarantine, rotation, write-through
# puts, sealed segments never rewritten, the directory lock), the
# retry/backoff core, the store fault matrix (every corrupting class x
# offset detected, zero silent), the kill -9
# tests against real subprocess daemons — mtserve's warm restart, and on
# mtserve and mtcoord alike a sweep killed midway whose resubmission
# streams to done with every stored cell restored — and the
# coordinator's recovery through the store (job records, crash images,
# the divergence tripwire).
storecheck:
	$(GO) test ./internal/store ./internal/retry
	$(GO) test ./internal/resilience -run 'TestStoreFaultMatrix|TestStoreQuarantineMatrix|TestStoreTornTail'
	$(GO) test ./cmd/mtserve ./cmd/mtcoord -run 'TestKillDashNine'
	$(GO) test ./internal/serve -run 'TestStoreTier'
	$(GO) test ./internal/cluster -run 'TestClusterStore|TestCoordinator|TestStoreDivergence'

bench:
	$(GO) test -bench=. -benchmem .

# One iteration of each engine, placement and analysis microbenchmark and
# of the catalog's trace generation (a few seconds with a warm build
# cache): keeps bench_test.go compiling and running, including
# BenchmarkEngineProbeDisabled's zero-allocation hot-path assertion, and
# prints the ns/op, B/op and allocs/op of a whole-catalog build and of
# Gauss's SHARE-REFS placement and static analysis.
benchsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkPlace|BenchmarkAnalyze|BenchmarkWorkloadGeneration' -benchtime 1x -benchmem .

# Online adaptive placement tier (DESIGN.md §16): the advisor package
# (ONLINE name grammar, policies, recommendation math), the engines'
# online differential suite (interval-off == static, cycle for cycle, on
# both engines), the guard's online path, the /v1/advise API
# differentials on worker and coordinator, an ONLINE/… sweep through the
# coordinator (equal to the same sweep on one worker), and the phased
# crossover smoke — online must beat the best static placement on the
# phase-changing workload with the migration penalty charged, and every
# cell of its grid must match the reference engine.
advisecheck:
	$(GO) test ./internal/advise
	$(GO) test ./internal/sim -run 'TestOnline|TestRunOnline'
	$(GO) test ./internal/resilience -run 'TestEngineGuardRunOnline'
	$(GO) test ./internal/serve -run 'TestAdvise|TestSimulateOnline|TestSweepOnline'
	$(GO) test ./internal/cluster -run 'TestClusterAdvise|TestClusterSweepOnline'
	$(GO) test -short ./cmd/experiments -run 'TestAdvise'

# Regenerate BENCH_advise.json: the static-vs-online kernel grid through
# /v1/sweep plus the phased-workload migration-cost crossover. Hard-fails
# unless online beats the best static placement somewhere in the swept
# (interval, cost) grid.
benchadvise:
	$(GO) run ./cmd/experiments -advise BENCH_advise.json -scale 0.25

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
