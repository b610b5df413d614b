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
#
# The paper's figures come from `go run ./cmd/experiments -exp <id>`; each package's micro-benchmarks run with
# `go test -run NONE -bench <name> -benchmem ./internal/<package>`.
GO ?= go

.PHONY: build test verify loc alloc-gate bench-e2e bench-e2e-compare metrics-lint fuzz-short

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
