# Tier-1 gate: everything `make check` runs must stay green. The race
# target limits -race to the real-runtime tests (goroutine-per-task over
# TCP), the sharded executor, and the engine itself, whose coroutines are
# resumed from a different worker goroutine each epoch; the layers above
# run one at a time on that engine, so instrumenting the full suite buys
# nothing and triples its runtime.

GO ?= go

.PHONY: check fmt vet build test race lint lint-json bench determinism gatesmoke

check: fmt vet build test race lint determinism gatesmoke

fmt:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/tcpnet/ ./internal/exec/ ./internal/parallel/ ./internal/sim/
	$(GO) test -race -run 'TCP|Real' ./internal/collective/ ./internal/mpi/ ./internal/ga/ ./internal/lapi/
	$(GO) test -race -run 'Sharded' ./internal/switchnet/ ./internal/cluster/
	$(GO) test -race ./internal/gateway/...

# The multicore determinism gate: every virtual-time experiment must emit
# byte-identical output whether sweep points run serially or across the
# parallel executor's workers (internal/parallel). -exp all is every such
# experiment of the one driver — the §4 set, the sweeps, and the §5.4
# Global Arrays set (latency, fig3, fig4, ablate, app).
determinism:
	@$(GO) build -o /tmp/golapi-lapibench ./cmd/lapibench
	@/tmp/golapi-lapibench -exp all -csv -serial > /tmp/golapi-all-serial.out; \
	/tmp/golapi-lapibench -exp all -csv > /tmp/golapi-all-parallel.out; \
	if ! cmp -s /tmp/golapi-all-serial.out /tmp/golapi-all-parallel.out; then \
		echo "determinism: -exp all differs between -serial and parallel:"; \
		diff /tmp/golapi-all-serial.out /tmp/golapi-all-parallel.out; exit 1; \
	fi; \
	echo "determinism: -exp all byte-identical serial vs parallel"
	@# Contended-mesh identity: -exp mesh iterates every named fabric
	@# (crossbar, contended spine, fat tree, zero latency) and exits
	@# non-zero if any sharded run's virtual times diverge from serial.
	@/tmp/golapi-lapibench -exp mesh > /dev/null && \
		echo "determinism: -exp mesh serial/sharded virtual times identical on all fabrics"
	@# Thousand-task sweep: the mesh1k CSV holds only virtual times, so
	@# the one-shard run must byte-match the sharded run.
	@/tmp/golapi-lapibench -exp mesh1k -csv -rounds 1 -serial > /tmp/golapi-mesh1k-serial.out; \
	/tmp/golapi-lapibench -exp mesh1k -csv -rounds 1 > /tmp/golapi-mesh1k-parallel.out; \
	if ! cmp -s /tmp/golapi-mesh1k-serial.out /tmp/golapi-mesh1k-parallel.out; then \
		echo "determinism: -exp mesh1k differs between -serial (one shard) and sharded:"; \
		diff /tmp/golapi-mesh1k-serial.out /tmp/golapi-mesh1k-parallel.out; exit 1; \
	fi; \
	echo "determinism: -exp mesh1k (1024 tasks) byte-identical serial vs sharded"
	@# Sub-crossover bit-identity: below the rendezvous crossover (256 KB on
	@# the simulated switch) the protocol machinery must not move a single
	@# virtual tick, so fig2's first 15 CSV lines (header + sizes 16 B
	@# through 128 KB) are byte-identical with rendezvous on and off.
	@/tmp/golapi-lapibench -exp fig2 -csv | head -15 > /tmp/golapi-fig2-rndv.out; \
	/tmp/golapi-lapibench -exp fig2 -csv -force-eager | head -15 > /tmp/golapi-fig2-eager.out; \
	if ! cmp -s /tmp/golapi-fig2-rndv.out /tmp/golapi-fig2-eager.out; then \
		echo "determinism: fig2 sub-crossover rows differ between rendezvous and -force-eager:"; \
		diff /tmp/golapi-fig2-rndv.out /tmp/golapi-fig2-eager.out; exit 1; \
	fi; \
	echo "determinism: fig2 sub-crossover rows byte-identical with and without rendezvous"
	@# lapivet's diagnostic stream is pinned byte for byte: the full suite
	@# over every golden package under internal/analysis/*/testdata/src
	@# must equal the committed internal/analysis/suite/testdata/golden.json,
	@# and the ownership summaries of the obligation fixtures must equal
	@# internal/analysis/obligation/testdata/effects.golden, three runs in a
	@# row (the concurrency model and the obligation engine iterate maps,
	@# so order must not depend on iteration).
	@$(GO) test -count=3 -run 'TestSuiteGolden|TestEffectsGolden' ./internal/analysis/suite/ ./internal/analysis/obligation/

# lapivet enforces the LAPI usage invariants the type system cannot see
# (DESIGN.md "Usage invariants"): non-blocking header handlers, origin
# buffer ownership, pooled-buffer lifetimes, counter arming discipline,
# activity-local contexts, simulator determinism. -strict-ignores keeps
# the suppression comments honest: an ignore that no longer suppresses
# anything fails the gate.
lint:
	$(GO) run ./cmd/lapivet -strict-ignores ./...

# Machine-readable diagnostics for editor/CI integration.
lint-json:
	$(GO) run ./cmd/lapivet -json ./...

# Host-dependent gates, outside `make check` (every wall-clock number with a
# noise band is a `go run ./benchmark` metric): the allocation budgets, the
# simulator's microbenchmarks, and the lint-cost ratio, whose record is
# BENCH_hotpath.json (fails above 3.5x the load-only time).
bench:
	$(GO) test -run 'AllocBudget|DoesNotAllocate' ./internal/sim/ ./internal/switchnet/ ./internal/lapi/ ./internal/tcpnet/ ./internal/gateway/
	$(GO) test -run xxx -bench . -benchmem ./internal/sim/
	$(GO) run ./cmd/lapibench -exp lintgate > BENCH_hotpath.json

# Gateway CI gate: a 2-rank mesh, 64 sessions each pipelining at exactly
# the granted window, strict outcome checks (every request answered, zero
# errors, mesh count cross-checked).
gatesmoke:
	$(GO) run ./cmd/lapigate -mode smoke
