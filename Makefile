# Build / verification tiers.
#
#   make build             compile everything
#   make test              tier-1: full test suite
#   make verify            tier-2: metrics lint + allocation gates + short
#                          fuzz pass (none of which the race run contains:
#                          the gates skip under -race, fuzzing is its own
#                          mode), then a gofmt check (fails on any file
#                          `gofmt -l .` lists), go vet and the race
#                          detector over the whole tree. For one battery under -race,
#                          run `go test -race -run <pattern> <packages>`
#   make loc               non-test, non-blank, non-comment-only Go lines
#                          per package under internal/ and cmd/, and the
#                          total (the count CHANGES.md entries quote)
#   make fuzz-short        ~10s per fuzz target over every Fuzz* in the
#                          tree, seeded from the checked-in corpora
#   make metrics-lint      metric-name rules: lowercase_snake, counters
#                          end in _total, non-empty HELP, each name
#                          registered exactly once (obs registry panics
#                          plus a walk over the live world registries)
#   make alloc-gate        every Test*AllocationFree / *AllocationBound:
#                          frame encode, journal append, a follower's
#                          AppendFrame (no stream tail), the group-commit
#                          loop (TestGroupCommitAllocationFree), a stream
#                          message's decode and answer
#                          (TestStreamExchangeAllocationFree), a timed
#                          call over the in-memory transport
#                          (TestCallAllocationBound: <= 4 objects), a
#                          served reserve, cancel and 256-op batch
#                          decoded into a kept message
#                          (TestServedRequestAllocationBound: their
#                          strings only), a grant of 2 or 8 claims
#                          decoded and copied out for its caller
#                          (TestDecodeGrantAllocationBound: <= 2, and
#                          <= 2 to decode its approvals), a
#                          follower applying a reserve's and a cancel's
#                          stream message
#                          (TestFollowerStreamApplyAllocationBound:
#                          <= 8 and 0),
#                          QHist Observe, event append, ledger reads,
#                          signature verify and AppendSign (0), a warm
#                          chain Verify (the same count at 2 and 8
#                          layers, <= 6; <= 7 when every broker layer
#                          carries a claim), Open into a used chain
#                          through a DN table of its brokers (the
#                          user's DN at any depth, and one string copy
#                          of an onion that carries policy attributes),
#                          a recycled Extend (0), a policy
#                          decision (0), a policy server's decision
#                          into the caller's Result
#                          (TestDecideAllocationFree: 0), one 8-domain
#                          World reserve +
#                          cancel (TestReserveChainAllocationBound:
#                          <= 222 objects;
#                          TestReserveChainByteAllocationBound: <= 56
#                          KiB), the same objects for every
#                          domain a reserve crosses, from 3 to 8
#                          (TestReserveAllocationBoundPerDomain), the
#                          signatures each broker of a 3-, 5- and
#                          8-domain reserve makes and checks
#                          (TestReserveSignatureCheckAllocationBound:
#                          4 / 6 / 9 made with the user's; 5 / 9 / 15
#                          checked, and 6 / 15 / 36 under a policy
#                          naming the user), Seal, tunnel batch validate /
#                          decode / dense
#                          grant of an alloc and a release batch
#                          (TestTunnelBatchDenseAllocationBound), a batch
#                          denied at its last op
#                          (TestTunnelBatchDeniedAllocationBound), the
#                          source's round trip of a batch granted whole
#                          (TestTunnelBatchSourceAllocationBound: no
#                          more objects at 256 ops than at 64, no per-op
#                          results), a
#                          follower applying a bb.tunnel_batch record
#                          (TestTunnelBatchReplayAllocationBound), a
#                          tunnel endpoint's alloc and release batch, one
#                          cut from a tunnel.Keys (TestKeysAllocationBound),
#                          an endpoint snapshot's decode and Restore
#                          (TestRestoreAllocationBound), a broker
#                          programming its simulation data plane
#                          (TestPlaneProgrammingAllocationFree: 0)
#                          (DESIGN.md §6.5,
#                          §6.6, §6.8, §6.11 give each bound its reason;
#                          run without -race: the gates skip under it)
#   make bench-e2e         the repository's benchmark (bench/README.md):
#                          go run ./bench — four workloads, end to end
#                          then traced, rows appended to bench/out/
#   make bench-e2e-compare A=parent.jsonl B=change.jsonl
#                          go run ./bench -compare: gate B's rows against
#                          A's under the bounds in BENCHMARK.json
#   make bench             benchmark harness
#   make bench-chain       destination Verify of a warm 1/2/3/5/8-layer
#                          chain with -benchmem (everything about a layer
#                          but its signature check should be flat from 2
#                          to 8), then identity.Sign and Verify alone
#   make bench-wire        signalling frame encode and decode on the
#                          batch-64 frame with -benchmem, after the
#                          allocation gates, and one request/response on
#                          a warm connection (newstack-seen must read 0)
#   make bench-concurrency reserve throughput vs parallel requesters
#                          (BENCH_concurrency.json)
#   make bench-subflow     sub-flow admission throughput at batch sizes
#                          1 to 256, with -benchmem, plus the 1%-sampled
#                          telemetry arm
#   make bench-obs         telemetry micro-benchmarks with -benchmem:
#                          histogram Observe, quantile merge, sampler
#                          draw and flight-recorder append (BENCH_obs.json)
#   make bench-replication end-to-end admission, unreplicated vs a
#                          3-replica commit-gated group, then the commit
#                          gate alone with -benchmem, in two shapes:
#                          BenchmarkReplCommitGate/rar_cancel (one record)
#                          and /reserve (resv.admit + bb.rar with a
#                          3-approval outcome) (BENCH_replication.json)
#   make bench-route       route-lookup micro-benchmarks with -benchmem:
#                          cached NextHop and the cold k-disjoint Paths
#                          computation (BENCH_route.json)
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
