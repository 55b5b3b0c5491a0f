GO ?= go

.PHONY: build vet vet-bench lint test perfbench-check race chaos netchaos lockdep lockdoc fuzz bench serve-smoke mvcc-smoke sim sim-long sim-mvcc cover ci

build:
	$(GO) build ./...

# Vet tier: go vet plus SQLCM's own analyzers (sqlcm-vet -analyzers lists
# them) — hot-path hygiene, the rule-callback recover discipline, context
# propagation, cancellation-point proofs, goroutine ownership, the
# SQLSTATE single-source check, the data-protection suite, and the
# //sqlcm:lock order checker, which follows calls across packages
# through their lock-class facts — and static analysis of the shipped
# rule sets (which must be finding-free even in strict mode).
# docs/lock-order.md must match the annotations.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/sqlcm-vet -code .
	$(GO) run ./cmd/sqlcm-vet -lockdoc .
	$(GO) run ./cmd/sqlcm-vet -mode strict examples/rulesets

# Analyzer latency budget: the whole-tree type-aware -code run must stay
# under 30 seconds (it currently runs in a few) so it can live in
# precommit workflows; a loader regression that re-type-checks the
# standard library per package would blow this immediately.
vet-bench:
	@start=$$(date +%s); $(GO) run ./cmd/sqlcm-vet -code .; end=$$(date +%s); \
	elapsed=$$((end-start)); echo "sqlcm-vet -code . took $${elapsed}s (budget 30s)"; \
	test $$elapsed -le 30

# Lint tier: staticcheck at a pinned version (offline fallback runs the
# in-repo analyzers instead), on top of the vet tier.
lint: vet
	./scripts/staticcheck.sh

test:
	$(GO) test ./...

# The benchmark (perfbench/) is its own Go module, so the root
# build and test tiers skip it; vet and test it against the current
# engine API here.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Race tier: the concurrency tests (striped LATs, copy-on-write rule
# index, sharded caches, event bus) are only meaningful under -race.
race:
	$(GO) test -race ./...

# Chaos tier: fault-injection tests for the fail-safe layer (panic
# quarantine, outbox retry/backoff/shedding, crash-safe checkpointing),
# run under -race because the faults race against live dispatch.
chaos:
	$(GO) test -race -run 'TestChaos|TestEviction' -count=1 ./internal/core/
	$(GO) test -race -count=1 ./internal/faults/ ./internal/outbox/

# Netchaos tier: the open-loop load harness driven through the
# fault-injecting listener (internal/faults/netfaults) under -race: 30%
# of connections get latency/bandwidth/partial-write/slow-loris/reset/
# blackhole toxics. Gates on zero protocol-corruption errors on surviving
# connections, a clean drain within budget, and no leaked goroutines.
netchaos:
	$(GO) test -race -count=1 -run TestNetChaos ./internal/loadgen/

# Lockdep tier: run the chaos and concurrency suites with the runtime
# lock-order assertions compiled in (sqlcmlockdep) under -race, plus the
# tag-gated lockdep unit tests themselves. Any lock acquired against the
# observed order panics with both stacks instead of deadlocking. Also
# verifies docs/lock-order.md is current.
lockdep:
	$(GO) run ./cmd/sqlcm-vet -lockdoc .
	$(GO) test -tags sqlcmlockdep -race -count=1 ./internal/lockcheck/... ./internal/lat/ ./internal/rules/ ./internal/monitor/ ./internal/event/ ./internal/engine/ ./internal/server/
	$(GO) test -tags sqlcmlockdep -race -run 'TestChaos|TestEviction' -count=1 ./internal/core/
	$(GO) test -tags sqlcmlockdep -race -count=1 ./internal/faults/ ./internal/outbox/

# Regenerate docs/lock-order.md from the //sqlcm:lock annotations.
lockdoc:
	$(GO) run ./cmd/sqlcm-vet -lockdoc -write .

# Sim tier: the deterministic simulation harness replays seeded workloads
# through the real monitoring stack and a naive sequential oracle in
# lockstep, comparing every journal entry and every LAT cell after every
# event. 64 seeds across all three workload profiles, plus the golden
# trace replays and the fault-injection/shrinker acceptance tests.
sim:
	SQLCM_SIM_SEEDS=64 $(GO) test -count=1 ./internal/sim/

# Extended sweep for soak runs: more seeds, longer traces.
sim-long:
	SQLCM_SIM_SEEDS=256 SQLCM_SIM_EVENTS=1200 $(GO) test -count=1 -timeout 30m ./internal/sim/

# MVCC tier: the differential visibility oracle (real version store vs a
# naive full-history recompute) over a 64-seed sweep, and the
# single-session lock-schedule invariance check (statement results, rule
# journal and LAT contents identical to the recorded strict-2PL reference
# in internal/sim/testdata/invariance_2pl.ref).
sim-mvcc:
	SQLCM_SIM_SEEDS=64 $(GO) test -count=1 -run 'TestMVCCVisibilitySweep|TestSingleSessionMVCCInvariance' ./internal/sim/

# Coverage floors for the packages the differential oracle leans on.
cover:
	./scripts/coverfloor.sh

# Fuzz smoke: harden the {ref} substitution scanner and the wire-protocol
# frame parser. One -fuzz target per go test invocation.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzSubstitute -fuzztime=30s ./internal/rules/
	$(GO) test -run='^$$' -fuzz=FuzzProtoFrame -fuzztime=30s ./internal/server/

bench:
	$(GO) test -run xxx -bench . -benchtime 1000x ./...

# Loopback smoke tier: a short open-loop load run (internal/loadgen)
# against an in-process network front-end under -race — nonzero
# throughput, zero statement errors, clean graceful drain.
serve-smoke:
	$(GO) test -race -count=1 -run TestServeSmoke ./internal/loadgen/

# MVCC smoke tier: read-mostly Zipf load with monitoring on — a reader
# fleet plus one hot writer — under -race; snapshot readers must never
# surface as Query.Blocked events.
mvcc-smoke:
	$(GO) test -race -count=1 -run TestMVCCSmoke ./internal/loadgen/

ci:
	./scripts/ci.sh
