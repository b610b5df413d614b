# Build / verification tiers.
#
#   make build             compile everything
#   make test              tier-1: full test suite
#   make verify            tier-2: metrics lint + allocation gates + short
#                          fuzz pass (none of which the race run contains:
#                          the gates skip under -race, fuzzing is its own
#                          mode), then go vet and the race detector over
#                          the whole tree. The race-* targets below are
#                          subsets of that last step, kept for quick local
#                          runs; verify does not repeat them
#   make race-concurrency  fast -race smoke over the multiplexed-client
#                          (calls, posts, the per-connection request
#                          workers) and broker concurrency tests only
#   make race-recovery     journal, crash-replay and broker recovery
#                          tests under -race (the durability layer's
#                          correctness battery)
#   make fuzz-short        ~10s per fuzz target over every Fuzz* in the
#                          tree (envelope decode, concurrent Unwrap
#                          against its serial twin, signalling decode,
#                          policy parse, journal record decode, spec
#                          decode, saga record and snapshot decode,
#                          signature verify on arbitrary key, message
#                          and signature bytes), seeded from the
#                          checked-in corpora
#   make metrics-lint      metric-name rules: every registered name is
#                          lowercase_snake, counters end in _total, every
#                          metric carries non-empty HELP text, and each
#                          name registers exactly once (obs registry panics
#                          plus a walk over the live world registries)
#   make race-subflow      tunnel sub-flow battery under -race: the
#                          endpoint property/invariant tests, the batch
#                          handlers and the tunnel crash-recovery tests
#   make race-replication  replica-group battery under -race: journal
#                          streaming unit tests, follower convergence,
#                          the randomized leader-kill/promote failover
#                          property suite, the pipelined stream under
#                          scripted frame/ack faults with the checks a
#                          follower makes pinned one by one, and the
#                          signalling layer under it (Post, workers)
#   make race-fleet        scenario-fleet smoke tier under -race: all four
#                          scenario families (diurnal, flash crowd, churn,
#                          misreservation) at reduced population plus the
#                          seeded-determinism digest check, and the netsim
#                          data-plane concurrency battery
#   make race-multipath    multipath battery under -race: the k-disjoint
#                          path property tests, the saga coordinator
#                          suite (abort, crash-resume, abandonment), the
#                          broker re-route/breaker-skip/split/crash
#                          tests, and the fleet reroute scenario
#   make alloc-gate        allocs-per-op gates: binary frame encode,
#                          journal record append, quantile-histogram
#                          Observe, sampled-event append and the
#                          reservation table's ledger reads (Available,
#                          CommittedAt at 2000 live entries) must all be
#                          allocation-free, an admit+cancel pair may
#                          allocate only its Reservation and handle, a
#                          signature check allocates nothing, and a warm
#                          core.Broker.Verify parses no certificate
#                          (allocs per layer at 8 layers no more than at
#                          2, at most 3 per layer beyond the second) and
#                          copies no layer of the onion (bytes at 8
#                          layers at most 4.5 times those at 2 and twice
#                          the envelope's length), and Seal allocates
#                          its payload, signature and Envelope whatever
#                          the depth;
#                          validating a tunnel batch of up to 512 ops
#                          allocates nothing, decoding a 256-op frame
#                          at most 10 objects and no more than a 64-op
#                          one, and a granted release batch costs the
#                          destination no more objects or bytes at 256
#                          ops than at 64
#                          (run without -race; the gates skip under it)
#   make bench-e2e         the repository's benchmark (bench/README.md):
#                          go run ./bench — four workloads, end to end
#                          then traced, rows appended to bench/out/
#   make bench-e2e-compare A=parent.jsonl B=change.jsonl
#                          go run ./bench -compare: gate B's rows against
#                          A's under the bounds in BENCHMARK.json
#   make bench             benchmark harness
#   make bench-chain       destination Verify of a warm 1/2/3/5/8-layer
#                          chain with -benchmem, plus ns/layer and
#                          allocs/layer (everything about a layer but its
#                          signature check should be flat from 2 to 8),
#                          then the price of that check: identity.Sign
#                          and Verify on 256 B and 4 KiB messages
#   make bench-wire        signalling frame encode and decode on the
#                          batch-64 frame with -benchmem, after the
#                          allocation gates (which pin the encode arm at
#                          zero allocations), and one request/response
#                          on a warm connection (newstack-seen must read
#                          0: request goroutines keep their stacks)
#   make bench-concurrency reserve throughput vs parallel requesters
#                          (the numbers recorded in BENCH_concurrency.json)
#   make bench-subflow     sub-flow admission throughput, per-RPC vs
#                          batched, with -benchmem (bytes and objects
#                          per sub-flow), plus the 1%-sampled telemetry arm
#                          (the numbers in BENCH_subflow.json and
#                          BENCH_obs.json)
#   make bench-obs         telemetry micro-benchmarks with -benchmem:
#                          striped vs mutexed histogram Observe, quantile
#                          merge, sampler draw and flight-recorder append
#                          (the numbers recorded in BENCH_obs.json)
#   make bench-replication end-to-end admission, unreplicated vs a
#                          3-replica commit-gated group (the numbers
#                          recorded in BENCH_replication.json), then the
#                          commit gate alone: one append carried to a
#                          majority commit, with -benchmem
#   make bench-fleet       full scenario fleet at 100k users; regenerates
#                          BENCH_scale.json (grant-latency and goodput
#                          p50/p99/p999 per scenario)
#   make bench-route       route-lookup micro-benchmarks with -benchmem:
#                          cached NextHop (the per-RAR forwarding read)
#                          and the cold k-disjoint Paths computation
#                          (the numbers recorded in BENCH_route.json)

GO ?= go

.PHONY: build test verify alloc-gate bench bench-e2e bench-e2e-compare bench-chain bench-wire bench-concurrency bench-subflow bench-obs bench-replication bench-fleet bench-route metrics-lint race-concurrency race-recovery race-subflow race-replication race-fleet race-multipath fuzz-short

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

verify: build metrics-lint alloc-gate fuzz-short
	$(GO) vet ./...
	$(GO) test -race ./...

alloc-gate:
	$(GO) test -run 'AllocationFree|AllocationBound' ./internal/signalling ./internal/journal ./internal/obs ./internal/resv ./internal/core ./internal/identity ./internal/bb

race-concurrency:
	$(GO) test -race -run 'Concurrent|Worker|Post' ./internal/signalling ./internal/bb

race-recovery:
	$(GO) test -race ./internal/journal
	$(GO) test -race -run 'Journal|Snapshot|Recovery|Restart' ./internal/resv ./internal/bb

race-subflow:
	$(GO) test -race ./internal/tunnel
	$(GO) test -race -run 'Tunnel' ./internal/bb

race-replication:
	$(GO) test -race -run 'Stream' ./internal/journal
	$(GO) test -race -run 'Replicat|Failover|Stream|Pipelin' ./internal/bb
	$(GO) test -race -run 'Post|Worker' ./internal/signalling

race-fleet:
	$(GO) test -race -run 'Fleet' ./internal/experiment
	$(GO) test -race -run 'Concurrent|OnOffSourceStats|PolicerDropVsRemark|PolicerByteAndPacket' ./internal/netsim

race-multipath:
	$(GO) test -race -run 'Paths|PathCache' ./internal/topology
	$(GO) test -race ./internal/saga
	$(GO) test -race -run 'Reroute|Breaker|Split|Abandoned' ./internal/bb
	$(GO) test -race -run 'FleetReroute' ./internal/experiment

fuzz-short:
	$(GO) test -run NONE -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/envelope
	$(GO) test -run NONE -fuzz '^FuzzUnwrapMatchesSerial$$' -fuzztime 10s ./internal/envelope
	$(GO) test -run NONE -fuzz '^FuzzDecodeMessage$$' -fuzztime 10s ./internal/signalling
	$(GO) test -run NONE -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/policy
	$(GO) test -run NONE -fuzz '^FuzzDecodeRecord$$' -fuzztime 10s ./internal/journal
	$(GO) test -run NONE -fuzz '^FuzzDecodeSpec$$' -fuzztime 10s ./internal/core
	$(GO) test -run NONE -fuzz '^FuzzSagaRecord$$' -fuzztime 10s ./internal/saga
	$(GO) test -run NONE -fuzz '^FuzzVerify$$' -fuzztime 10s ./internal/identity

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
	$(GO) test -run NONE -bench 'QHistObserve|MutexHistObserve|QHistQuantile|SamplerSample|RecorderAppend' -benchmem ./internal/obs

bench-replication:
	$(GO) test -run NONE -bench 'ReplicatedAdmit' -benchtime 500x -count 3 .
	$(GO) test -run NONE -bench 'ReplCommitGate' -benchtime 20000x -count 3 -benchmem ./internal/bb

bench-fleet:
	$(GO) run ./cmd/experiments -exp fleet -fleet-users 100000 -fleet-bench BENCH_scale.json

bench-route:
	$(GO) test -run NONE -bench 'NextHop|PathsCold' -benchmem ./internal/topology
