# Development targets for the CEDAR reproduction. `make check` is the full
# verification gate: build, vet, the complete test suite under the race
# detector, the chaos suite (fault injection + resilience middleware), the
# golden-trace determinism gate, the persistent-store gate (crash-recovery
# sweep + cross-process determinism), the SQL differential gate (vectorized
# executor vs row oracle + plan-cache stress), the sharded-serving gate
# (multi-replica determinism + failover), the streaming gate (stream-vs-batch
# determinism, review queue, failover duplicate-work regression), the
# ingestion gate (dataset onboarding: type inference, sampling determinism,
# cross-topology verdict identity), the routing determinism gate
# (cross-database claim decomposition and routing, DESIGN.md §16), and a
# short fuzz smoke over the SQL parser/executor, the store's segment decoder,
# the shard ring, the ingestion type-inference engine and dataset codec, the claim
# decomposer/router, the prompt-schema memo, the sparse embedding and the
# simulated model's fused prompt read, the documented-surface gate,
# `gatelint` (every gate below must still select tests), and
# `benchmark-quick`: the repository benchmark's own correctness
# checks on a twentieth of every workload. Performance is measured by
# `go run ./benchmark` (see benchmark/README.md); `make bench` only runs the
# packages' Go micro-benchmarks, for profiling while working on one.

GO ?= go
FUZZTIME ?= 5s

.PHONY: check build vet test race chaos trace store sqldiff shard stream ingest route fuzz-smoke doclint gatelint benchmark-quick bench

check: build vet gatelint race chaos trace store sqldiff shard stream ingest route fuzz-smoke doclint benchmark-quick

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-mode pass over the fault-injection and resilience suites: the chaos
# determinism matrix, the breaker state machine (unit + 32-goroutine
# stress), retrier/hedge accounting, and the failed-attempt billing fixes.
chaos:
	$(GO) test -race -run 'Chaos|Breaker|Retrier|Hedge|Fault|Throttled|Metered|Resilience' \
		./internal/core ./internal/llm/resilience ./internal/llm ./cedar

# Golden-trace determinism gate under the race detector: the sorted JSONL
# trace of a run must be byte-identical across worker counts, with and
# without injected faults, plus the tracer's own unit/alloc/race suite. The
# simulated model's compiled prompt reading (DESIGN.md §17) promises the same
# bytes by construction, so its differentials against the code it replaced
# run here too: the lazy math/rand source, the sparse embedding, the schema
# memo and the compiled column resolution (every generator corpus), with the
# 32-goroutine cache stress, the cache-cap churn and the allocation ceilings.
# So does the attempt that executes its query once (DESIGN.md §18): the
# three-execution attempt it replaced over every generator corpus, method and
# fault rate, the execution count at the plan cache, the result shapes, and
# the per-run claim inputs. And so does an attempt's text path (DESIGN.md
# §20): prompts rendered at their exact size against the fmt renderers, the
# prompt layout against the searches it replaced, the fused seed hash and
# token count against hash/fnv and CountMessageTokens, the one-allocation
# masking and query rendering against theirs, the memos
# releasing the text they were filled from, and the allocation ceilings.
trace:
	$(GO) test -race -run 'GoldenTrace|TraceSpans|Tracer|Aggregate|Quantile|Manifest|WriteJSONL|Differential|LazyRand|ColumnCache|CompiledCaches|SchemaMemo|AllocCeiling|FoldedCreateTable|AttemptExecutesOnce|AttemptResultShapes|ClaimInputs' \
		./internal/core ./internal/trace ./internal/llm ./internal/llm/sim ./internal/nl ./internal/embed ./internal/verify \
		./internal/prompts ./internal/textutil

# Persistent-store gate under the race detector (DESIGN.md §11): segment
# round-trip/recovery units, the crash-recovery truncation sweep (reopen at
# every byte offset of the final record), the 32-goroutine read/write
# stress, the cache collision regression, persisted-hit replay, and the
# cross-process determinism harness (cold vs warm bit-identity, zero fees
# for persisted hits) including the cedar-serve warm-restart contract.
store:
	$(GO) test -race -run 'Store|Segment|Recovery|Persist|CrossProcess|Memo|Collision|ReplayNormalize|WarmRestart' \
		./internal/store ./internal/llm ./internal/trace ./cedar ./cmd/cedar-serve

# Documented-surface gate: every flag each binary registers must appear in
# its docs/CLI.md section (each cmd package walks its own FlagSet), every
# cedar-serve route must be in the API reference, and every package must
# open with a package comment.
doclint:
	$(GO) test -run 'Doclint' ./cmd/... ./internal/doclint

# Gate-selector lint: `go test -run <regex>` exits 0 when the regex matches
# nothing, so a gate whose tests were renamed or moved would keep passing
# while checking nothing. For every gate in this file (each -run regex and
# each -fuzz target), gatelint asks `go test -list` what the regex selects in
# each of the gate's packages and fails on any pair that selects no test.
gatelint:
	GO=$(GO) $(GO) run ./internal/gatelint Makefile

# SQL differential gate under the race detector (DESIGN.md §12): the
# old-vs-new harness (stored corpus + >=1000 generated queries through both
# the row oracle and the vectorized executor, bit-identical results and
# error surfaces), the pushdown row-count property, the plan-cache suite
# (normalized sharing, invalidation, cap, 32-goroutine mixed
# prepare/execute/invalidate stress), the Schema() memo under catalog churn
# (32 readers, never a stale schema), and the warm-cache verdict/trace
# determinism tests at the pipeline level.
sqldiff:
	$(GO) test -race -run 'Differential|PlanCache|Pushdown|ExplainQuery|WarmPlanCache|HashJoinMatches|SchemaMemo' \
		./internal/sqldb ./internal/data ./internal/core

# Sharded-serving gate under the race detector (DESIGN.md §13): ring
# determinism/minimal-movement units and the 32-goroutine membership stress,
# the replica health prober/breaker, proxy failover, coordinator
# routing/fan-out/drain-rebalance, the cmd-level multi-replica identity
# harness (bit-identical verdicts and normalized traces at shard counts
# {1,2,4,8}, including a mid-load replica kill).
shard:
	$(GO) test -race -run 'Shard|Ring|Prober|Coordinator|Failover|Rebalance|RouteKey' \
		./internal/shard ./internal/serve ./cmd/cedar-serve

# Streaming gate under the race detector (DESIGN.md §14): the NDJSON
# stream endpoint's determinism vs batch (arrival order, window size,
# faults), early delivery (a document's verdicts are read while a later
# batch still runs), backpressure/slow-client behavior (a disconnecting
# client must not wedge the batcher), the review queue (ranking,
# idempotent resolve, coordinator fan-out/merge), and the failover proxy's
# delivered-detection regression (zero duplicated claims, fees booked once).
stream:
	$(GO) test -race -run 'Stream|Review|AfterDelivery|Delivered|Disagreement|Disconnect|SlowClient' \
		./internal/serve ./internal/review ./internal/shard ./internal/verify ./cedar ./cmd/cedar-serve

# Ingestion gate under the race detector (DESIGN.md §15, docs/DATA.md): the
# CSV/NDJSON/JSON parser and type-inference suites, the deterministic
# reservoir sampler, dataset persistence round-trips (encode/decode, store
# restart, base-table protection), the CLI's ingest→verify cold/warm
# bit-identity, the serving tier's /v1/datasets handlers and coordinator
# fan-out (direct run vs single replica vs 4-shard coordinator verdict
# identity), the documented journey's fingerprint, the dataset codec's
# bounds on corrupt counts, and the CSV path's allocation ceiling and
# sampled-heap bound.
ingest:
	$(GO) test -race -run 'Ingest|Dataset|Registry|Surface|Classify|CleanColumn' \
		./internal/ingest ./cmd/cedar ./cmd/cedar-serve

# Routing determinism gate under the race detector (DESIGN.md §16):
# deterministic compound-claim decomposition, catalog scoring and seeded
# binding, the plan/recombine units, the cedar-level determinism matrix
# (bit-identical verdicts, fees, and normalized traces across workers {1,8}
# × fault rates {0,0.2}), the single-database degenerate byte-identity, the
# partition property test, the routed serving tier (shard counts {1,4} vs a
# direct route-enabled replica), routing accuracy against the corpus's gold
# labels (≥ 0.9, catalog binding and route.PlanDocuments), and routed F1
# above home-database F1.
route:
	$(GO) test -race -run 'Route|Decompose|Combine|Catalog|UnitID' \
		./internal/route ./internal/agent ./internal/schedule ./internal/data \
		./cedar ./internal/serve ./cmd/cedar-serve ./internal/ingest

# Each fuzz target gets a short exploratory burst on top of its seed corpus
# (the seeds alone already run as part of `go test`).
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzParse$$ -fuzztime $(FUZZTIME) ./internal/sqldb
	$(GO) test -run NONE -fuzz FuzzQuery$$ -fuzztime $(FUZZTIME) ./internal/sqldb
	$(GO) test -run NONE -fuzz FuzzParseAndExec$$ -fuzztime $(FUZZTIME) ./internal/sqldb
	$(GO) test -run NONE -fuzz FuzzPlanCacheKey$$ -fuzztime $(FUZZTIME) ./internal/sqldb
	$(GO) test -run NONE -fuzz FuzzStoreDecode$$ -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run NONE -fuzz FuzzRingAssign$$ -fuzztime $(FUZZTIME) ./internal/shard
	$(GO) test -run NONE -fuzz FuzzTypeInference$$ -fuzztime $(FUZZTIME) ./internal/ingest
	$(GO) test -run NONE -fuzz FuzzClassify$$ -fuzztime $(FUZZTIME) ./internal/ingest
	$(GO) test -run NONE -fuzz FuzzDatasetCodec$$ -fuzztime $(FUZZTIME) ./internal/ingest
	$(GO) test -run NONE -fuzz FuzzDecompose$$ -fuzztime $(FUZZTIME) ./internal/route
	$(GO) test -run NONE -fuzz FuzzRouteScore$$ -fuzztime $(FUZZTIME) ./internal/route
	$(GO) test -run NONE -fuzz FuzzSchemaMemo$$ -fuzztime $(FUZZTIME) ./internal/nl
	$(GO) test -run NONE -fuzz FuzzSparseDot$$ -fuzztime $(FUZZTIME) ./internal/embed
	$(GO) test -run NONE -fuzz FuzzPromptTokens$$ -fuzztime $(FUZZTIME) ./internal/llm/sim

# The benchmark's reference, digest and span checks on 1/20 of every
# workload's list, untraced then traced: claims returned in order, a sampled
# re-verification through a fresh System, traced-vs-plain verdict digest and
# fee agreement. It exits non-zero if any check fails; the timings it prints
# are too short to mean anything and are not gated.
benchmark-quick:
	$(GO) run ./benchmark -quick

# Go micro-benchmarks of every package, for profiling one layer while
# working on it. The numbers a change is judged by come from
# `go run ./benchmark`, not from here.
bench:
	$(GO) test -bench . -benchmem ./...
