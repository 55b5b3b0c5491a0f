#!/usr/bin/env bash
# CI gate: build, lint, the functional test tier, then the race tier.
# The race tier re-runs every test under the race detector; the
# concurrency tests in internal/lat, internal/rules, internal/monitor and
# internal/event are written to surface latch-ordering and published-state
# bugs only -race can see. The chaos tier exercises the fail-safe layer
# (panic quarantine, outbox retry/shedding, checkpoint crash-recovery)
# under fault injection. A short fuzz smoke hardens the placeholder
# substitution scanner.
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...

# Lint tier: go vet, the in-repo analyzers (hot-path hygiene, rule-callback
# recover discipline, context propagation, cancellation points, goroutine
# ownership, SQLSTATE single-sourcing, the data-protection suite
# (//sqlcm:guards field access, atomics-everywhere, //sqlcm:cow publish
# checking), and the //sqlcm:lock order checker, which follows calls
# across packages through their lock-class facts; `sqlcm-vet -analyzers`
# lists them), rule-set static analysis, and pinned staticcheck
# (offline-tolerant; see scripts/staticcheck.sh). docs/lock-order.md must
# be current relative to the annotations. All hard gates, shared with the
# local workflow via `make vet`; vet-bench additionally fails the build
# if the whole-tree analysis run blows its 30-second latency budget.
make vet
make vet-bench
./scripts/staticcheck.sh
go test ./...

# Alloc tier: the allocation-count tests (a LAT insert into an existing
# group allocates nothing, a rule firing at most its new group's key, a
# LAT-referencing condition only the row it reads) run again under their
# own name, so an allocation regression on the monitored path fails
# here rather than as one test among many.
echo "== alloc tier =="
go test -count=1 -run 'Allocs' ./internal/lat ./internal/rules ./internal/engine

go test -race ./...

# Benchmark tier: perfbench/ is its own Go module, which the root
# build and test skip; vet and test it so an engine API it calls cannot
# vanish unnoticed.
(cd perfbench && go vet ./... && go test ./...)

go test -race -run 'TestChaos|TestEviction' -count=1 ./internal/core/
go test -race -count=1 ./internal/faults/ ./internal/outbox/

# Lockdep tier: the same chaos and concurrency suites with the runtime
# lock-order assertions compiled in. A single out-of-order acquisition
# anywhere in these runs panics with both acquisition stacks.
go test -tags sqlcmlockdep -race -count=1 ./internal/lockcheck/... ./internal/lat/ ./internal/rules/ ./internal/monitor/ ./internal/event/ ./internal/engine/ ./internal/server/
go test -tags sqlcmlockdep -race -run 'TestChaos|TestEviction' -count=1 ./internal/core/
go test -tags sqlcmlockdep -race -count=1 ./internal/faults/ ./internal/outbox/

# Serve-smoke tier: a short open-loop load run against the in-process
# network front-end under -race. Gates on nonzero throughput, zero
# statement errors, and a clean graceful drain (see internal/loadgen).
go test -race -count=1 -run TestServeSmoke ./internal/loadgen/

# MVCC smoke tier: read-mostly Zipf load with monitoring on — a reader
# fleet plus one hot writer — under -race. Gates on zero statement errors
# and on snapshot readers never surfacing as Query.Blocked events.
go test -race -count=1 -run TestMVCCSmoke ./internal/loadgen/

# Netchaos tier: the same harness through the fault-injecting listener
# (internal/faults/netfaults), 30% toxic connections — latency, bandwidth
# caps, partial writes, slow-loris reads, mid-frame resets, blackholes —
# under -race. Gates on zero protocol-corruption errors on surviving
# connections, a clean drain within budget, and no leaked goroutines.
go test -race -count=1 -run TestNetChaos ./internal/loadgen/

# Sim tier: the deterministic simulation harness. Seeded workloads replay
# through the real monitoring stack and a naive sequential oracle in
# lockstep; every journal entry and every LAT cell must match after every
# event, across 64 seeds and all three workload profiles. Includes the
# golden trace replays (pinned run fingerprints) and the acceptance check
# that an injected aggregate fault is caught and shrunk to a tiny witness.
SQLCM_SIM_SEEDS=64 go test -count=1 ./internal/sim/

# MVCC tier: the differential visibility oracle over a 64-seed sweep and
# the single-session lock-schedule invariance check (statement results,
# rule journal and LAT contents identical to the recorded strict-2PL
# reference in internal/sim/testdata/invariance_2pl.ref).
SQLCM_SIM_SEEDS=64 go test -count=1 -run 'TestMVCCVisibilitySweep|TestSingleSessionMVCCInvariance' ./internal/sim/

# Coverage floors: internal/lat and internal/rules may not drop below the
# percentages recorded when the differential oracle was introduced.
./scripts/coverfloor.sh

# Fuzz smoke (one -fuzz target per invocation): the placeholder
# substitution scanner and the wire-protocol frame parser.
go test -run='^$' -fuzz=FuzzSubstitute -fuzztime=30s ./internal/rules/
go test -run='^$' -fuzz=FuzzProtoFrame -fuzztime=30s ./internal/server/
