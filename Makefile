# DiffServe reproduction — tier-1 verification and benchmark targets.

GO ?= go

# verify is the tier-1 gate: formatting, static checks, build, tests,
# and the diffvet invariant suite.
.PHONY: verify
verify: fmt-check vet lint build test

.PHONY: fmt-check
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

.PHONY: vet
vet:
	$(GO) vet ./...

# lint runs the diffvet static-analysis suite (internal/analysis):
# codecparity, poolownership, walltime, and globalrand. Exit 1 on any
# finding; suppress only with //diffvet:allow <analyzer> — <reason>.
.PHONY: lint
lint:
	$(GO) run ./cmd/diffvet ./...

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

# COMMIT stamps the BENCH_*.json summaries with the commit their
# numbers were measured at (cmd/benchjson also records the Go version,
# GOMAXPROCS and the cpu: line).
COMMIT ?= $(shell git describe --always --dirty --abbrev=40 2>/dev/null || echo none)

# bench regenerates every figure benchmark (minutes).
.PHONY: bench
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# bench-perf runs just the perf-pipeline benchmarks this refactor
# tracks (see PERFORMANCE.md).
.PHONY: bench-perf
bench-perf:
	$(GO) test -run '^$$' -bench 'Fig5$$|MomentsStreaming|MomentsBatch|GenerateCached|ExperimentsSerial|ExperimentsParallel' -benchmem .

# bench-wire runs the cluster wire-path benchmarks: codec
# encode/decode and the end-to-end submit/pull/complete/results cycle
# across the json, binary, tcp, and inproc transports (see
# PERFORMANCE.md). The machine-readable summary lands in
# BENCH_wire.json via cmd/benchjson.
.PHONY: bench-wire
bench-wire:
	@out="$$($(GO) test -run '^$$' -bench 'BenchmarkCodec|BenchmarkWirePath' -benchmem ./internal/cluster/)" \
		|| { echo "$$out"; exit 1; }; \
	printf '%s\n' "$$out" | $(GO) run ./cmd/benchjson -out BENCH_wire.json -commit "$(COMMIT)"

# bench-shard measures aggregate submit throughput of the sharded LB
# tier vs a single LBServer (see PERFORMANCE.md's "Sharded LB tier"
# table; acceptance bar: >= 1.5x at 2 shards). Summary in
# BENCH_shard.json.
.PHONY: bench-shard
bench-shard:
	@out="$$($(GO) test -run '^$$' -bench 'BenchmarkShardedSubmit' -benchmem ./internal/cluster/)" \
		|| { echo "$$out"; exit 1; }; \
	printf '%s\n' "$$out" | $(GO) run ./cmd/benchjson -out BENCH_shard.json -commit "$(COMMIT)"

# bench-milp runs the allocation-solver benchmarks: the Fig 5
# allocation slice (one full Allocate: threshold binary search over
# warm-started MILP subproblems) and the control-tick solve rate at
# 1x and 10x the current pool count (see PERFORMANCE.md's
# "Warm-started MILP" tables). Summary in BENCH_milp.json.
.PHONY: bench-milp
bench-milp:
	@out="$$($(GO) test -run '^$$' -bench 'BenchmarkMILPSolve|BenchmarkControlTickSolve' -benchmem .)" \
		|| { echo "$$out"; exit 1; }; \
	printf '%s\n' "$$out" | $(GO) run ./cmd/benchjson -out BENCH_milp.json -commit "$(COMMIT)"

# allocs-gate pins the zero-allocation wire path: the end-to-end
# tcp/binary cycle (8 queries/op) must stay within 2 allocs/op and the
# in-process transport within 8. Baseline before pooling: tcp 73
# allocs/op; before binary-only framing kept requests on the stack: 4
# (see PERFORMANCE.md). The parked variants, whose pull and results
# poll block and are woken, must stay within 2 (tcp) and 2 (inproc);
# before pooled waits they took 22 and 8, and tcp took 4 before
# binary-only framing. A 64-query submit through a 1-shard frontend
# must stay within 3 allocs/op, nearly all of which the benchmark's
# background pullers and result poller make (it measures 2 or 3).
.PHONY: allocs-gate
allocs-gate:
	@out="$$($(GO) test -run '^$$' -bench 'BenchmarkWirePath' -benchmem -count=1 ./internal/cluster/ \
		&& $(GO) test -run '^$$' -bench 'BenchmarkShardedSubmit/shards=1$$' -benchmem -count=1 ./internal/cluster/)" \
		|| { echo "$$out"; exit 1; }; \
	printf '%s\n' "$$out" | $(GO) run ./cmd/benchjson \
		-max-allocs 'BenchmarkWirePath/tcp=2,BenchmarkWirePath/inproc=8,BenchmarkWirePathParked/tcp=2,BenchmarkWirePathParked/inproc=2,BenchmarkShardedSubmit/shards=1=3'

# poison-test re-runs the cluster suite with recycled buffers filled
# with NaN sentinels on release (see pool_poison.go): any read or
# resolve of a buffer the pool already owns fails loudly instead of
# silently serving stale floats. The full suite runs without the race
# detector; the race leg is -short because the ~10x slowdown distorts
# the wall-clock-calibrated harness assertions.
.PHONY: poison-test
poison-test:
	$(GO) test -tags poolpoison ./internal/cluster/
	$(GO) test -race -short -tags poolpoison ./internal/cluster/

# bench-ring compares the consistent-hash ring lookup against the
# static-modulus ShardOf baseline (acceptance bar: ring within 2x).
.PHONY: bench-ring
bench-ring:
	$(GO) test -run '^$$' -bench 'BenchmarkRingLookup|BenchmarkShardOf' -benchmem ./internal/loadbalancer/

# race-reshard hammers the dynamic-membership machinery — epoch
# flips, drain migration, retired-shard sweeps, worker re-pinning —
# under the race detector (the newest concurrency surface).
.PHONY: race-reshard
race-reshard:
	$(GO) test -race -short -count=2 \
		-run 'TestReshardChaosNoLostOrDoubleResolve|TestTransportConformance/.*/epoch-flip-atomic-submit|TestTransportConformance/.*/drain-pull-ownership' \
		./internal/cluster/

# race-autoscale soaks the elasticity loop under the race detector:
# the controller alone scales a 1-shard frontend to 4 and back under a
# bursty trace (zero lost/double-resolved queries, bounded epochs),
# plus the epoch-collapse and retired-pump-termination regressions and
# the membership-endpoint follower sync.
.PHONY: race-autoscale
race-autoscale:
	$(GO) test -race -count=2 \
		-run 'TestHarnessAutoscaleTopology|TestManyReshardsCollapseEpochs|TestRetiredPumpsTerminate|TestMembershipEndpointHTTP|TestMembershipFollowerSyncsOverTCP' \
		./internal/cluster/

# chaos-soak runs the fault-tolerance suite under the race detector:
# the worker-churn soak (killed workers, severed conns, injected
# drops/latency — exactly-once accounting), the lease-reclaim and
# retry-after-sever conformance rows on every transport, and the
# controller/shard failover units. Raise COUNT for a longer hunt.
COUNT ?= 2
.PHONY: chaos-soak
chaos-soak:
	$(GO) test -race -count=$(COUNT) \
		-run 'TestChaosWorkerChurnNoLostQueries|TestTransportConformance/.*/lease-reclaim-exactly-once|TestTransportConformance/.*/retry-after-sever|TestControllerConservativeFailover|TestShardedLBDegradeSpill' \
		./internal/cluster/

# fuzz-smoke runs each decoder fuzz target briefly on top of the
# committed seed corpus (testdata/fuzz). CI runs this on every push;
# raise -fuzztime for a deeper local hunt.
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime=10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime=10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzRingLookup -fuzztime=10s ./internal/loadbalancer/
