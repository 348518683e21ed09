# Entry points mirroring .github/workflows/ci.yml: what CI gates on,
# a developer can run locally with make.

GO ?= go

.PHONY: all build test race lint chaos fuzz benchmarks-check cluster-smoke scale-smoke full-golden audit loc loc-check

all: build test lint

# The build also fails on any tracked Go file gofmt would rewrite.
build:
	$(GO) build ./...
	$(GO) vet ./...
	@unformatted=$$(git ls-files '*.go' | xargs gofmt -l); \
		if [ -n "$$unformatted" ]; then echo "not gofmt-clean:"; echo "$$unformatted"; exit 1; fi

# The last line runs every Go benchmark once, so a b.Fatal in one fails
# the target.
test:
	$(GO) test -shuffle=on ./...
	$(GO) test -count=20 -shuffle=on -run 'TestRouteRepeatsRunToRun|TestRouteFollowsPlannedSegment|TestSegmentHopsMatchFreshSearch|TestInterdomainSoakReplays|TestChurnSoakReplays|TestJoinLevelsMatchRootsFor|TestJoinAllocations|TestRouteOutcomeDigest|TestRouteAllocations|Anycast|Negotiat' ./internal/canon ./internal/delivery ./internal/vring
	$(GO) test -count=20 -shuffle=on -run 'TestForward|TestProbeReply|TestPeerSetBestProgress|TestCrossDriverJournalEquivalence' ./internal/proto
	$(GO) test -count=20 -shuffle=on -run 'TestMetricsCounters' ./internal/sim
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

race:
	$(GO) test -race -shuffle=on ./internal/sim/... ./internal/experiments/... ./internal/vring/... ./internal/canon/... ./internal/topology/... ./internal/linkstate/...
	$(GO) test -race -shuffle=on ./internal/proto/... ./internal/netem/... ./internal/overlay/...
	$(GO) test -race -shuffle=on ./internal/telemetry/... ./internal/cluster/...

# Stock linters. The project's own invariants are tests (DESIGN.md §8),
# so `make test` runs them. staticcheck and govulncheck run in CI as
# well but need network access to install; they are skipped here when
# absent.
lint:
	@command -v staticcheck >/dev/null && staticcheck ./... || echo "staticcheck not installed; skipping"
	@command -v govulncheck >/dev/null && govulncheck ./... || echo "govulncheck not installed; skipping"

chaos:
	$(GO) test -race -run 'TestChaos|TestJoinAndSend|TestJoinSurvives' -count=3 -timeout 15m ./internal/overlay/

# Live churn drill: 50 real-UDP nodes with per-node metrics endpoints,
# seeded kill/restart churn, reconvergence, and metrics-scrape
# assertions (nonzero forward counters on every survivor, nonzero
# eviction counters after churn). The 200-node acceptance drill is
# `go run ./cmd/roflnode cluster -n 200 -seed 1 -churn`.
cluster-smoke:
	$(GO) run ./cmd/roflnode cluster -n 50 -seed 1 -churn -timeout 60s

fuzz:
	$(GO) test -fuzz=FuzzDecodeRoundTrip -fuzztime=10s ./internal/wire
	$(GO) test -fuzz=FuzzHandleRequest -fuzztime=10s ./internal/overlay
	$(GO) test -fuzz=FuzzArithmeticMatchesReference -fuzztime=10s ./internal/ident
	$(GO) test -run FuzzColumnsMatchFloor -fuzz=FuzzColumnsMatchFloor -fuzztime=10s ./internal/ident
	$(GO) test -run FuzzCacheMatchesModel -fuzz=FuzzCacheMatchesModel -fuzztime=10s ./internal/vring
	$(GO) test -run FuzzCompactCacheBuild -fuzz=FuzzCompactCacheBuild -fuzztime=10s ./internal/vring
	$(GO) test -run FuzzCompactCacheLookup -fuzz=FuzzCompactCacheLookup -fuzztime=10s ./internal/vring
	$(GO) test -run FuzzShardedQueueOrder -fuzz=FuzzShardedQueueOrder -fuzztime=10s ./internal/sim
	$(GO) test -run FuzzPeerSetMatchesModel -fuzz=FuzzPeerSetMatchesModel -fuzztime=10s ./internal/proto
	$(GO) test -run FuzzPolicyPathsMatchReference -fuzz=FuzzPolicyPathsMatchReference -fuzztime=10s ./internal/canon

# Sharded single-network smoke: converge a 100k-host compact ring
# sharded 8 ways, check its ring pointers against sorted order and
# probe it, under a hard timeout; a ring fault fails the target. The
# full million-host sweep is `go run ./cmd/roflsim -fig scaling`
# (SCALING.md documents the published curves).
scale-smoke:
	@out=$$(timeout 300 $(GO) run ./cmd/roflsim -fig scaling -scalehosts 100000 -shards 8 -pairs 500) || exit 1; \
		echo "$$out"; if echo "$$out" | grep -q 'ring fault'; then echo "scale-smoke: ring fault"; exit 1; fi

# Every experiment at full scale, as CSV, byte for byte against the
# committed tables (~25 s on 2 vCPU). The scaling rows converge and
# probe a 10^6-host compact ring, so its state is pinned at that size.
# Regenerate the file with the same command only when a table is meant
# to move, and explain the diff in EXPERIMENTS.md.
full-golden:
	$(GO) run ./cmd/roflsim -all -csv | diff -u internal/experiments/testdata/full.golden.csv -

# The repository benchmark (BENCHMARK.json, benchmarks/README.md) is a
# nested module outside ./..., so nothing above builds it: vet it and
# run its unit tests here. `bash benchmarks/run.sh` runs the benchmark
# itself.
benchmarks-check:
	cd benchmarks && $(GO) vet . && $(GO) test -count=1 .

# Functions at 0 % in the union of tier-1 coverage and coverage-built
# runs of every command, example and the benchmark, then the functions
# only tests reach, then the struct fields no non-test code reads (~1.5
# min on 2 vCPU; CI runs it as a non-gating job and uploads the lists).
audit:
	bash scripts/audit.sh

# The line count of record: non-test Go outside benchmarks/, by the
# command CHANGES.md has quoted since PR 12.
LOC = git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^benchmarks/' | xargs cat | wc -l

loc:
	@$(LOC)

# The count may not exceed the committed loc.budget, so growth is a
# reviewed diff: a change that raises the budget says so in CHANGES.md.
# CI's build job runs this.
loc-check:
	@n=$$($(LOC)); b=$$(cat loc.budget); echo "non-test Go lines: $$n (loc.budget $$b)"; \
		if [ "$$n" -gt "$$b" ]; then echo "make loc exceeds loc.budget; cut code or raise the budget and say why in CHANGES.md"; exit 1; fi
