# Development targets for the CEDAR reproduction. `make check` is the full
# verification gate: build, gofmt, vet, `gatelint` (every gate below must
# still select tests), the complete test suite under the race detector, run
# once, a short fuzz smoke over the SQL parser/executor, the store's segment
# decoder and record codec, the shard ring, the ingestion type-inference engine and dataset
# codec, the claim decomposer/router, the prompt-schema memo, the sparse
# embedding, the simulated model's fused prompt read and the wire codec, the
# documented-surface gate, and `benchmark-quick`: the repository benchmark's
# own correctness checks on a twentieth of every workload.
#
# The focused gates — chaos (fault injection + resilience middleware),
# trace (trace determinism), store (crash recovery + cross-process
# determinism), sqldiff (vectorized executor vs row oracle + plan-cache
# stress), shard (multi-replica determinism + failover), stream
# (stream-vs-batch determinism, review queue, the wire), ingest (dataset
# onboarding) and route (cross-database decomposition and routing, DESIGN.md
# §16) — each run a subset of `race`'s tests under the race detector. The
# determinism half of chaos, trace, store, shard, stream, ingest and route is
# one test, cmd/cedar-serve's TestIdentityMatrix: every cell of
# cmd/cedar-serve/testdata/identity_cells.txt (corpus × fault profile ×
# layer and transport × workers × shards × route × store × plan cache) held
# to its class reference, so each of those gates runs it whole. They
# are not prerequisites of `check`, which already runs every one of those
# tests once in `race`; they are for a focused run while working on one
# layer, and `gatelint` still lints their selectors. Performance is measured
# by `go run ./benchmark` (see benchmark/README.md); `make bench` only runs
# the packages' Go micro-benchmarks, for profiling while working on one.

GO ?= go
FUZZTIME ?= 5s
N ?= 10

.PHONY: check build fmt vet test race chaos trace store sqldiff shard stream ingest route fuzz-smoke doclint gatelint benchmark-quick bench census pairs lines

check: build fmt vet gatelint race fuzz-smoke doclint benchmark-quick

build:
	$(GO) build ./...

# Formatting gate: fails, listing the files, when any Go file is not gofmt-clean.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "not gofmt-clean:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-mode pass over the fault-injection and resilience suites: the identity
# matrix (verdicts, fees and traces alike at fault rates 0, 0.05, 0.2, 0.2
# with a hedge and 0.5, at any worker count), the breaker state machine (unit + 32-goroutine
# stress), retrier/hedge accounting, the failed-attempt billing fixes, and
# the fee type every bill is booked in (exact dollar round trip and JSON,
# and the lint that no fee is summed as a float64).
chaos:
	$(GO) test -race -run 'Chaos|Breaker|Retrier|Hedge|Fault|Throttled|Metered|Resilience|FeeRoundTrip|FeeJSON|FeesAreIntegers|IdentityMatrix' \
		./internal/core ./internal/llm/resilience ./internal/llm ./cedar ./internal/fee ./cmd/cedar-serve

# Trace determinism gate under the race detector: the identity matrix (the
# sorted raw trace of a run byte-identical across worker counts, plan-cache
# warmth and degenerate routing, with and without injected faults, and the
# normalized trace across every layer, transport, shard count and store),
# the exported stream's well-formedness, plus the tracer's own
# unit/alloc/race suite. The
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
# And the envelope's (DESIGN.md §21): the schema resolvers' phrase memo
# against the reference resolution on every generator corpus and an
# eight-table catalog, bit for bit, cold and warm, with its 32-goroutine
# stress across the cap flushes; the tracer's reset reusing its storage; and
# the allocation ceilings of a warm parse, a replica's unary request and a
# relayed stream event.
trace:
	$(GO) test -race -run 'IdentityMatrix|TraceSpans|Tracer|Aggregate|Quantile|Manifest|WriteJSONL|Differential|LazyRand|ColumnCache|CompiledCaches|SchemaMemo|AllocCeiling|FoldedCreateTable|AttemptExecutesOnce|AttemptResultShapes|ClaimInputs' \
		./internal/core ./internal/trace ./internal/llm ./internal/llm/sim ./internal/nl ./internal/embed ./internal/verify \
		./internal/prompts ./internal/textutil ./internal/serve ./cmd/cedar-serve

# Persistent-store gate under the race detector (DESIGN.md §11): segment
# round-trip/recovery units, the crash-recovery truncation sweep (reopen at
# every byte offset of the final record), the 32-goroutine read/write
# stress, the cache collision regression, persisted-hit replay, the identity
# matrix's store cells (cold, warm and warm again: bit-identical verdicts and
# normalized traces, warm calls = cold calls − persisted hits, every memo
# hit), memo mismatches, the cedar-serve warm-restart contract, and
# the pinned cache directory an earlier build wrote (its memos all hit, its
# completions answer every temperature-0 attempt, its fingerprints hold).
store:
	$(GO) test -race -run 'Store|Segment|Recovery|Persist|IdentityMatrix|Memo|Collision|ReplayNormalize|WarmRestart' \
		./internal/store ./internal/llm ./internal/trace ./cedar ./cmd/cedar-serve

# Documented-surface gate: every flag each binary registers must appear in
# its docs/CLI.md section (each cmd package walks its own FlagSet), every
# cedar-serve route must be in the API reference, every package must open
# with a package comment, and EXPERIMENTS.md's seed-17 tables must match the
# cedar-bench golden. It also runs the reachability census
# (TestDoclintReachable): every top-level function, method and type of a
# non-test file is reached from a main, an init, a package-level variable or
# package cedar's exported API, or is kept by a census entry naming the test
# that needs it.
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
# one-engine contract — every stored corpus line (diffqueries.sql,
# accessqueries.sql, the fuzz seed corpora) and >=1000 generated queries
# through the row-at-a-time oracle (oracle_test.go), ExecVec and the cached
# Query path, which must each answer exactly what the oracle answers, result
# or error text alike — the pushdown row-count property over the data
# generators' catalogs (an external test of internal/sqldb), the plan-cache
# suite (invalidation, cap, 32-goroutine mixed
# prepare/execute/invalidate stress), the Schema() memo under catalog churn
# (32 readers, never a stale schema), the lib-bigtable warm plan cache's
# access paths, the allocation ceiling of a warm
# one-cell QueryScalar on a document-sized table, and exact integer
# arithmetic and SUM (ErrOverflow past int64) on every engine path.
sqldiff:
	$(GO) test -race -run 'Differential|PlanCache|Pushdown|ExplainQuery|WarmPlanCache|HashJoinMatches|SchemaMemo|QueryScalar|IntegerOverflow' \
		./internal/sqldb ./internal/core

# Sharded-serving gate under the race detector (DESIGN.md §13): ring
# determinism/minimal-movement units and the 32-goroutine membership stress,
# the replica health prober/breaker, proxy failover, the coordinator's relay
# (unary and batch alike: one request to one owning replica, its answer
# verbatim), broadcast folds and drain-rebalance, the identity matrix
# (bit-identical verdicts, fees and merged normalized traces at shard counts
# {1,2,4,8}, unary, batch and stream), and the mid-load replica kill.
shard:
	$(GO) test -race -run 'Shard|Ring|Prober|Coordinator|Failover|Rebalance|RouteKey|IdentityMatrix' \
		./internal/shard ./internal/serve ./cmd/cedar-serve

# Streaming gate under the race detector (DESIGN.md §14): the identity
# matrix's stream cells (cedar.Stream in arrival and shuffled order, a
# replica's and a coordinator's /v1/verify/stream, against batch), each
# stream window counted exactly against a wedged backend, early delivery (a document's verdicts are read while a later
# batch still runs), backpressure/slow-client behavior (a disconnecting
# client must not wedge the batcher), the review queue (ranking,
# idempotent resolve, heap eviction against the scan it replaced,
# coordinator fan-out/merge), the coordinator's relay over one exchange per
# owner at a time (documents read together share one, a bad document
# answered alone, owner loss, deadline, draining owner, fees booked exactly
# once, no goroutine outliving a session), the failover proxy's
# delivered-detection regression (zero duplicated claims, fees booked once),
# and a replica's fee total that is exact in any order of its batches. With
# them, the wire (DESIGN.md §21): the tier's response bytes against their
# golden, the codec against encoding/json's bytes and decodes, a verify body
# with trailing data answered 400 on both tiers, a stream in one
# micro-batch written with at most two flushes, and a stream that stops
# reading its body early leaving no panic in either tier's server log.
stream:
	$(GO) test -race -run 'Stream|Review|AfterDelivery|Delivered|Disagreement|Disconnect|SlowClient|MetricsFeesExact|TierGolden|TrailingData|WireEncode|WireFiller|WireCodec|IdentityMatrix' \
		./internal/serve ./internal/review ./internal/shard ./internal/verify ./cedar ./cmd/cedar-serve

# Ingestion gate under the race detector (DESIGN.md §15, docs/DATA.md): the
# CSV/NDJSON/JSON parser and type-inference suites, the deterministic
# reservoir sampler, dataset persistence round-trips (encode/decode, store
# restart, a deleted dataset staying deleted, base-table protection), the CLI's ingest→verify cold/warm
# bit-identity, the serving tier's /v1/datasets handlers and coordinator
# fan-out, the identity matrix's sales cells (direct run, replica and
# coordinator alike, every replica's fingerprint equal), the documented
# journey's fingerprint, the dataset codec's
# bounds on corrupt counts, and the CSV path's allocation ceiling and
# sampled-heap bound.
ingest:
	$(GO) test -race -run 'Ingest|Dataset|Registry|Surface|Classify|CleanColumn|IdentityMatrix' \
		./internal/ingest ./cmd/cedar ./cmd/cedar-serve

# Routing determinism gate under the race detector (DESIGN.md §16):
# deterministic compound-claim decomposition, catalog scoring and seeded
# binding, the plan/recombine units, the identity matrix's routed cells
# (bit-identical verdicts, fees and normalized traces across workers {1,8},
# fault rates {0,0.2} and shard counts {1,4}, the library against a
# replica (where routing runs) and a coordinator relaying to one, and the
# single-database degenerate raw
# byte-identity), the partition property test, routing accuracy against the corpus's gold
# labels (≥ 0.9, catalog binding and route.PlanDocuments), and routed F1
# above home-database F1.
route:
	$(GO) test -race -run 'Route|Decompose|Combine|Catalog|UnitID|IdentityMatrix' \
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
	$(GO) test -run NONE -fuzz FuzzRecordCodec$$ -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run NONE -fuzz FuzzRingAssign$$ -fuzztime $(FUZZTIME) ./internal/shard
	$(GO) test -run NONE -fuzz FuzzTypeInference$$ -fuzztime $(FUZZTIME) ./internal/ingest
	$(GO) test -run NONE -fuzz FuzzClassify$$ -fuzztime $(FUZZTIME) ./internal/ingest
	$(GO) test -run NONE -fuzz FuzzDatasetCodec$$ -fuzztime $(FUZZTIME) ./internal/ingest
	$(GO) test -run NONE -fuzz FuzzDecompose$$ -fuzztime $(FUZZTIME) ./internal/route
	$(GO) test -run NONE -fuzz FuzzRouteScore$$ -fuzztime $(FUZZTIME) ./internal/route
	$(GO) test -run NONE -fuzz FuzzSchemaMemo$$ -fuzztime $(FUZZTIME) ./internal/nl
	$(GO) test -run NONE -fuzz FuzzSparseDot$$ -fuzztime $(FUZZTIME) ./internal/embed
	$(GO) test -run NONE -fuzz FuzzPromptTokens$$ -fuzztime $(FUZZTIME) ./internal/llm/sim
	$(GO) test -run NONE -fuzz FuzzWireCodec$$ -fuzztime $(FUZZTIME) ./internal/serve

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

# Coverage census: which code the shipped workloads enter. The benchmark and
# cedar-bench are built with `-cover -covermode=count` and run, every
# workload at `-seconds 4 -trace 0` and `cedar-bench -seed 17 all`, into one
# fresh counter directory; `go tool covdata percent` then prints each
# package's statement coverage. The directory is kept and named, so
# `go tool covdata func -i=<dir>` (or `textfmt`) can say which functions and
# branches ran at all. It gates nothing and is not part of `check` (about
# 20 s on 2 vCPUs).
census:
	@dir=$$(mktemp -d) && \
	$(GO) build -cover -covermode=count -o $$dir/benchmark ./benchmark && \
	$(GO) build -cover -covermode=count -o $$dir/cedar-bench ./cmd/cedar-bench && \
	mkdir $$dir/counters && \
	for w in lib-corpus lib-bigtable serve-wait tier-cpu; do \
		GOCOVERDIR=$$dir/counters $$dir/benchmark -workload $$w -seconds 4 -trace 0 -out $$dir >/dev/null || exit 1; \
	done && \
	GOCOVERDIR=$$dir/counters $$dir/cedar-bench -seed 17 all >/dev/null && \
	$(GO) tool covdata percent -i=$$dir/counters && \
	echo "counters kept in $$dir/counters"

# Alternating pairs of `go run ./benchmark` runs, parent against the working
# tree (internal/benchpairs): the benchmark is built once at PARENT, in a git
# worktree under a temporary directory, and once here, both with -trimpath
# -buildvcs=false, and it says whether the two binaries are byte-identical
# (the same source builds the same bytes); then N pairs run, each
# workload in a process of its own at -trace 0, alternating which side goes
# first. ARGS passes -workload, -seconds and -out through (-out names
# the directory every run's result line is kept in). For each workload and
# end-to-end metric it prints both medians, the parent's quartile spread over
# its median, the change's wins, ties and losses, and whether the change's
# median is worse than the metric's BENCHMARK.json bound. It gates nothing
# and is not part of `check` (about 15 minutes for N=10 on 2 vCPUs).
#
#	make pairs PARENT=HEAD~1 N=10 ARGS='-workload lib-bigtable -seconds 60'
pairs:
	@test -n "$(PARENT)" || { echo "make pairs needs PARENT=<rev>"; exit 2; }
	GO=$(GO) $(GO) run ./internal/benchpairs -parent '$(PARENT)' -n $(N) $(ARGS)

# The line counts ROADMAP.md quotes, each taken as `find … | xargs cat | wc -l`
# (blank and comment lines included): non-test Go in the whole module, in
# benchmark/, in internal/sqldb, in cmd/, in internal/cliutil (the two
# binaries' shared assembly), in internal/serve and in internal/shard (the
# serving tier), then every _test.go file. Last, the coordinator's relay
# files — internal/serve/coordinator*.go and internal/shard/proxy.go — in
# non-blank, non-comment lines. It gates nothing and is not part of `check`.
lines:
	@for d in . benchmark internal/sqldb cmd internal/cliutil internal/serve internal/shard; do \
		printf 'non-test Go %-16s %6d\n' "$$d" "$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"; \
	done; \
	printf 'tests %-22s %6d\n' . "$$(find . -name '*_test.go' | xargs cat | wc -l)"; \
	printf 'coordinator files, code only %6d\n' \
		"$$(ls internal/serve/coordinator*.go internal/shard/proxy.go | grep -v _test | xargs cat | grep -v '^[[:space:]]*$$' | grep -v '^[[:space:]]*//' | wc -l)"
