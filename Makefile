GO ?= go

.PHONY: all build test lint race fuzz-smoke bench-smoke persist-smoke cluster-smoke chaos-smoke chaos-soak

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs cmd/vbslint — the in-repo invariant analyzers (errwrap,
# poolescape, lockio, atomicfaults, metricreg) plus go vet —
# over the whole tree, tests included; staticcheck rides along when
# installed. The module-wide test-only-API guard (exported internal/
# API that only tests reach) is cmd/vbslint's TestNoTestOnlyAPI, run
# by `make test` next to TestCleanTree.
lint:
	$(GO) run ./cmd/vbslint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi

# race is the one list of packages run under the race detector; CI
# calls this target instead of keeping its own copy.
race:
	$(GO) test -race ./internal/server/... ./internal/repo/ ./internal/cluster/ ./internal/chaos/ ./internal/controller/ ./internal/sched/ ./internal/core/ ./internal/devirt/ ./internal/jobs/ ./internal/metrics/ ./internal/transport/ ./internal/fabric/ ./internal/arch/ ./internal/bits/

# fuzz-smoke gives every parser that reads a socket or a disk (the
# container parser, transport frames and envelopes, the Prometheus
# exposition parser), and the region router against its heap
# reference, ten seconds of coverage-guided fuzzing (go test -fuzz
# takes one target and one package per run).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/transport/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEnvelopes$$' -fuzztime 10s ./internal/transport/
	$(GO) test -run '^$$' -fuzz '^FuzzParseExposition$$' -fuzztime 10s ./internal/metrics/
	$(GO) test -run '^$$' -fuzz '^FuzzRouteMatchesReference$$' -fuzztime 10s ./internal/devirt/

# bench-smoke is the CI guard: every decode benchmark must still run —
# the facade's, and the two on the bench's own mid containers — and so
# must the batch-envelope frame codec (flate vs raw).
# Performance numbers come from `go run ./bench` (see BENCHMARK.json and
# bench/README.md), not from here.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkDecode$$|BenchmarkParallelDecode$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkDecodeMid$$' -benchtime 1x ./internal/controller/
	$(GO) test -run '^$$' -bench 'BenchmarkParseMid$$' -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkBatchFrame$$' -benchtime 1x ./internal/transport/

# persist-smoke proves the vbsd -data-dir durability loop against a
# real daemon and a SIGKILL (see scripts/persistence_smoke.sh).
persist-smoke:
	./scripts/persistence_smoke.sh

# cluster-smoke proves the vbsgw sharded-serving loop: 3 nodes +
# gateway, replicated loads, an out-of-band import, byte-identical
# serving, a vbsload mix under a strict error budget, and a fourth
# node joined under live load with a zero error budget
# (see scripts/cluster_smoke.sh).
cluster-smoke:
	./scripts/cluster_smoke.sh

# chaos-smoke runs the CI-sized chaos recipes (nodekill, corruptblob,
# nodeadd) against real vbsd subprocesses: fault injection under live
# traffic, then fleet-wide invariant checks (see scripts/chaos_smoke.sh).
chaos-smoke:
	./scripts/chaos_smoke.sh

# chaos-soak is the full-length run of every recipe — minutes, not CI.
chaos-soak:
	$(GO) run ./cmd/vbschaos -recipe all
