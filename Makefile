# Build / verification tiers.
#
#   make build             compile everything
#   make test              tier-1: full test suite
#   make verify            tier-2: metrics-lint, alloc-gate and fuzz-short (none of which the race run covers), then gofmt -l, go vet and go test -race ./...
#   make loc               non-test, non-blank, non-comment-only Go lines per package under internal/ and cmd/, and the total
#   make fuzz-short        ~10s per fuzz target over every Fuzz* in the tree, seeded from the checked-in corpora
#   make metrics-lint      metric-name rules: lowercase_snake, counters end in _total, non-empty HELP, each name registered once
#   make alloc-gate        every Test*AllocationFree / *AllocationBound (each test states its bound and DESIGN.md its reason; skips under -race)
#   make bench-e2e         the repository's benchmark (bench/README.md): four workloads, rows appended to bench/out/
#   make bench-e2e-compare A=parent.jsonl B=change.jsonl gates B's rows against A's under the bounds in BENCHMARK.json
#   make bench             benchmark harness
#   make bench-chain       destination Verify of a warm 1/2/3/5/8-layer chain with -benchmem, then identity.Sign and Verify alone
#   make bench-wire        the allocation gates, then signalling frame encode/decode on the batch-64 frame and one warm request/response
#   make bench-concurrency reserve throughput vs parallel requesters (BENCH_concurrency.json)
#   make bench-subflow     sub-flow admission throughput at batch sizes 1 to 256, with -benchmem, plus the 1%-sampled telemetry arm
#   make bench-obs         telemetry micro-benchmarks with -benchmem (BENCH_obs.json)
#   make bench-replication end-to-end admission unreplicated vs a 3-replica group, then the commit gate alone (BENCH_replication.json)
#   make bench-route       route-lookup micro-benchmarks with -benchmem: cached NextHop and cold Paths (BENCH_route.json)
GO ?= go

.PHONY: build test verify loc alloc-gate bench bench-e2e bench-e2e-compare bench-chain bench-wire bench-concurrency bench-subflow bench-obs bench-replication bench-route metrics-lint fuzz-short

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

verify: build metrics-lint alloc-gate fuzz-short
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l: unformatted Go files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...

loc:
	@for d in $$(find internal cmd -type d | sort); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -vcE '^[[:space:]]*(//.*)?$$'); \
		[ $$n -gt 0 ] && printf '%6d %s\n' $$n $$d; done; \
	printf '%6d total\n' $$(find internal cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -vcE '^[[:space:]]*(//.*)?$$')

alloc-gate:
	$(GO) test -run 'AllocationFree|AllocationBound' ./internal/signalling ./internal/journal ./internal/obs ./internal/resv ./internal/core ./internal/identity ./internal/bb ./internal/tunnel ./internal/envelope ./internal/policy ./internal/policysrv ./internal/experiment ./internal/dataplane/netsimdp

fuzz-short:
	$(GO) test -run NONE -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/envelope
	$(GO) test -run NONE -fuzz '^FuzzUnwrapMatchesSerial$$' -fuzztime 10s ./internal/envelope
	$(GO) test -run NONE -fuzz '^FuzzTransitOpenMatchesUnwrap$$' -fuzztime 10s ./internal/envelope
	$(GO) test -run NONE -fuzz '^FuzzDecodeMessage$$' -fuzztime 10s ./internal/signalling
	$(GO) test -run NONE -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/policy
	$(GO) test -run NONE -fuzz '^FuzzDecodeRecord$$' -fuzztime 10s ./internal/journal
	$(GO) test -run NONE -fuzz '^FuzzDecodeSpec$$' -fuzztime 10s ./internal/core
	$(GO) test -run NONE -fuzz '^FuzzSagaRecord$$' -fuzztime 10s ./internal/saga
	$(GO) test -run NONE -fuzz '^FuzzVerify$$' -fuzztime 10s ./internal/identity
	$(GO) test -run NONE -fuzz '^FuzzDecodeBrokerState$$' -fuzztime 10s ./internal/bb
	$(GO) test -run NONE -fuzz '^FuzzRestoreTable$$' -fuzztime 10s ./internal/resv
	$(GO) test -run NONE -fuzz '^FuzzRestoreEndpoint$$' -fuzztime 10s ./internal/tunnel
	$(GO) test -run NONE -fuzz '^FuzzDecodeEvent$$' -fuzztime 10s ./internal/obs

metrics-lint:
	$(GO) test -run 'TestMetricsLint' ./internal/obs ./internal/experiment

bench-e2e:
	$(GO) run ./bench

bench-e2e-compare:
	$(GO) run ./bench -compare $(A) $(B)

bench:
	$(GO) test -bench=. -benchmem

bench-chain:
	$(GO) test -run NONE -bench 'TrustChainVerify' -benchmem .
	$(GO) test -run NONE -bench 'SignVerify' -benchmem ./internal/identity

bench-wire: alloc-gate
	$(GO) test -run NONE -bench 'BenchmarkCodec|BenchmarkServeRoundTrip' -benchmem ./internal/signalling

bench-concurrency:
	$(GO) test -run NONE -bench 'ConcurrentReserveChain' -benchtime 2s .

bench-subflow:
	$(GO) test -run NONE -bench 'SubFlowThroughput' -benchtime 150000x -benchmem .

bench-obs:
	$(GO) test -run NONE -bench 'QHistObserve|QHistQuantile|SamplerSample|RecorderAppend' -benchmem ./internal/obs

bench-replication:
	$(GO) test -run NONE -bench 'ReplicatedAdmit' -benchtime 500x -count 3 .
	$(GO) test -run NONE -bench 'ReplCommitGate' -benchtime 20000x -count 3 -benchmem ./internal/bb

bench-route:
	$(GO) test -run NONE -bench 'NextHop|PathsCold' -benchmem ./internal/topology
