# Development targets for the pqe reproduction.

GO ?= go

.PHONY: all build vet lint test test-short race bench bench-json bench-compare delta-soak experiments experiments-md fuzz testkit soak serve-smoke shard-smoke loc clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Source hygiene: go vet plus the forbidden-pattern checks (no
# fmt.Print*/log.Print* outside cmd/ and examples/ — library code logs
# through the configured slog logger).
lint: vet
	$(GO) test ./internal/lint/

test:
	$(GO) test ./...

# Skips the sampling-heavy property tests.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# One benchmark per experiment table/figure plus component micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the five committed BENCH_*.json baselines (countnfta,
# countnfa, churn, router and shard, whose sharded rows run on real
# worker subprocesses and must be bit-identical to the in-process
# baseline).
bench-json:
	$(GO) run ./cmd/pqebench -json -maxprocs 4

# Re-run the five suites into /tmp and diff each against its committed
# baseline: per-row ns_per_op (the median of the row's samples) /
# allocs_per_op deltas, a geomean summary, and a non-zero exit on any
# >$(BENCH_MAX_REGRESS) ns_per_op regression or missing baseline row.
# The nightly soak workflow runs this and uploads the reports.
BENCH_MAX_REGRESS ?= 0.25
BENCH_SUITES = countnfta countnfa churn router shard
bench-compare:
	$(GO) run ./cmd/pqebench -json -maxprocs 4 -json-dir /tmp
	for s in $(BENCH_SUITES); do \
		$(GO) run ./cmd/pqebench -compare -max-regress $(BENCH_MAX_REGRESS) \
			BENCH_$$s.json /tmp/BENCH_$$s.json || exit 1; \
	done

# Long randomized delta soak: interleave random fact-level deltas with
# estimates and check every estimate is bit-identical to a from-scratch
# session at the same database version. DELTA_STEPS deltas per case.
DELTA_STEPS ?= 200
delta-soak:
	PQE_TESTKIT_DELTA_STEPS=$(DELTA_STEPS) $(GO) test ./internal/testkit \
		-run TestDeltaSoak -timeout 60m -v

# Regenerate the experiment tables (text).
experiments:
	$(GO) run ./cmd/pqebench

# Regenerate the tables in the EXPERIMENTS.md format.
experiments-md:
	$(GO) run ./cmd/pqebench -markdown

fuzz:
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=30s ./internal/cq/
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=30s ./internal/pdb/
	$(GO) test -fuzz='^FuzzParseFact$$' -fuzztime=30s ./internal/pdb/
	$(GO) test -run=NONE -fuzz='^FuzzQueryToPipeline$$' -fuzztime=30s ./internal/testkit/
	$(GO) test -run=NONE -fuzz='^FuzzPathNFAConstruction$$' -fuzztime=30s ./internal/testkit/
	$(GO) test -run=NONE -fuzz='^FuzzNFTAConstruction$$' -fuzztime=30s ./internal/testkit/

# Long-mode differential + metamorphic suites (96 cases each).
testkit:
	$(GO) test -v -run 'TestDifferential|TestMetamorphic' ./internal/testkit/

# Scripted workload against a real pqed listener: one-shot vs streamed
# bit-identity, a same-seed burst, a delta round-trip with a 409 replay,
# and a /metrics scrape asserting zero shed at this low load. The
# scrape lands in SERVE_SMOKE_OUT (CI uploads it as an artifact).
SERVE_SMOKE_OUT ?= /tmp/pqed-metrics.prom
serve-smoke:
	$(GO) run ./cmd/pqed -smoke -smoke-out $(SERVE_SMOKE_OUT)

# Coordinator/worker sharding smoke: the shard package (HTTP range
# route, pool, reassignment) plus the distributed-vs-local differential
# lane (bit-identity at worker counts 1/2/4 including a mid-suite
# worker kill), under -race.
shard-smoke:
	$(GO) test -race -run 'TestDifferentialShard' -short ./internal/testkit/
	$(GO) test -race ./internal/shard/

# The nightly-CI workload, locally: 10x case budget on a chosen seed.
soak:
	PQE_TESTKIT_CASES=960 $(GO) test -timeout 60m \
		-run 'TestDifferential|TestMetamorphic' \
		-testkit.seed=$${SEED:-1} ./internal/testkit/

loc:
	find . -name '*.go' | xargs wc -l | tail -1

clean:
	$(GO) clean ./...
	rm -rf internal/*/testdata/fuzz
