# Development targets for the odds reproduction.

GO ?= go

.PHONY: all build test race cover check-binfmt benchmark benchmark-smoke bench bench-all bench-fault bench-rebuild bench-serve bench-wire bench-drift bench-backends serve-smoke cluster-smoke chaos cluster-chaos experiments quick-experiments verify-figures update-golden fmt vet clean

# The default verify path includes vet and the race detector: the
# parallel evaluation harness and the serving subsystem are only correct
# if the whole tree stays race-clean.
all: build vet check-binfmt test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One cursor: every state and control format decodes through
# internal/binfmt. Besides that package, only the ODWP hot-path codec may
# import encoding/binary (its per-reading loops stay on fixed offsets);
# any other non-test importer is a second hand-rolled reader creeping in.
check-binfmt:
	@bad=$$(grep -rl '"encoding/binary"' --include='*.go' --exclude='*_test.go' internal cmd examples *.go \
		| grep -v -e '^internal/binfmt/' -e '^internal/serve/codec\.go$$'); \
	if [ -n "$$bad" ]; then \
		echo "encoding/binary imported outside internal/binfmt and internal/serve/codec.go:"; \
		echo "$$bad"; exit 1; \
	fi

# The serving benchmark BENCHMARK.json declares (bench/README.md): every
# workload end to end, or every phase in a second or two as a smoke.
benchmark:
	$(GO) run ./bench

benchmark-smoke:
	$(GO) run ./bench -smoke

# Benchmark suites whose numbers land in BENCH_KERNEL.json (update the
# file from this output when the query engine changes). The end-to-end
# parallel suite runs ~1.3 s per op, so three iterations bound its
# runtime; the kernel and index microbenchmarks need real iteration
# counts for stable ns/op.
bench:
	$(GO) test -run=NONE -bench=BenchmarkKernel -benchmem -benchtime 1000x ./internal/kernel/
	$(GO) test -run=NONE -bench=BenchmarkDynIndexSlide -benchmem -benchtime 1000x ./internal/distance/
	$(GO) test -run=NONE -bench=BenchmarkParallelRunD3 -benchtime 3x ./internal/experiments/

# Every benchmark in the tree, Go-managed iteration counts.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Fault-engine overhead suite whose numbers land in BENCH_FAULT.json:
# nil plan (disabled path) vs empty compiled plan vs a full fault
# vocabulary, plus the end-to-end D3 run with faults disabled.
bench-fault:
	$(GO) test -run=NONE -bench=BenchmarkStep -benchmem -benchtime 2000000x ./internal/tagsim/
	$(GO) test -run=NONE -bench=BenchmarkParallelRunD3 -benchtime 3x ./internal/experiments/

# Incremental-maintenance suite whose numbers land in BENCH_REBUILD.json:
# one in-place maintenance cycle vs a from-scratch kernel rebuild, the
# per-arrival detector refresh in both modes (watch the full_builds and
# models_per_10k metrics), and the serving hot loop the savings feed.
bench-rebuild:
	$(GO) test -run=NONE -bench='BenchmarkMaintainCycle|BenchmarkFromScratchRebuild' -benchmem -benchtime 20000x ./internal/kernel/
	$(GO) test -run=NONE -bench=BenchmarkEstimatorRefresh -benchmem -benchtime 1s ./internal/core/
	$(GO) test -run=NONE -bench=BenchmarkPipelineIngest -benchmem -benchtime 1s ./internal/serve/

# Serving benchmark suite whose numbers land in BENCH_SERVE.json (update
# the file from this output when the serving path changes): the per-reading
# shard hot loop (must report 0 allocs/op) and the end-to-end HTTP server
# at a shard sweep, reporting readings/s and p99 ingest latency.
bench-serve:
	$(GO) test -run=NONE -bench='BenchmarkPipelineIngest|BenchmarkServerIngest' -benchmem -benchtime 1s ./internal/serve/

# Wire-protocol A/B suite whose numbers land in BENCH_WIRE.json (update
# the file from this output when the codec or HTTP path changes): full
# HTTP /ingest rounds JSON vs ODWP binary at shards {1,4}, the isolated
# codec round trip (binary must report 0 allocs/op), and the /subscribe
# fan-out overhead at 0/1/4 live streams.
bench-wire:
	$(GO) test -run=NONE -bench='BenchmarkWireHTTP|BenchmarkCodecRoundTrip|BenchmarkSubscribeFanout' -benchmem -benchtime 3s ./internal/serve/

# Drift-overhead suite whose numbers land in BENCH_DRIFT.json (update
# the file from this output when the drift monitor or the ingest hot
# path changes): the per-observation detector bank microbenchmarks and
# the drift-armed vs drift-free serving hot loop. Acceptance: the
# drift-armed ns/op stays within 2% of the baseline at the default
# sampling stride (both rows must report 0 allocs/op).
bench-drift:
	$(GO) test -run=NONE -bench=BenchmarkDriftObserve -benchmem -benchtime 200000x ./internal/drift/
	$(GO) test -run=NONE -bench='BenchmarkPipelineIngest$$|BenchmarkPipelineIngestDrift' -benchmem -benchtime 1s ./internal/serve/

# Detector-backend suite whose numbers land in BENCH_BACKENDS.json
# (update the file from this output when a backend engine changes): the
# per-reading ingest cost of each of the four backends under the shared
# steady-state harness. Acceptance: every backend row reports 0
# allocs/op, and the ewma row is the cheapest.
bench-backends:
	$(GO) test -run=NONE -bench=BenchmarkPipelineIngestBackend -benchmem -benchtime 1s ./internal/serve/

# End-to-end smoke of the serving subsystem: build oddserve + oddload,
# replay a seeded load over HTTP with verdict agreement enforced against
# the in-process twin, then verify clean SIGTERM shutdown and checkpoint.
serve-smoke: build
	scripts/serve_smoke.sh

# End-to-end smoke of the cluster tier: router + 3 cluster nodes, a live
# shard migration mid-stream, a hard primary kill with replica failover,
# all under oddload's twin verdict oracle, then clean shutdown.
cluster-smoke: build
	scripts/cluster_smoke.sh

# Full chaos property suite (30 oracle-generated fault schedules plus
# faulted parallel-replay determinism) and the fault-schedule fuzzer.
chaos:
	$(GO) test -race -run 'TestChaos|TestRunParallelFaulted|TestFaultedSeedExactReplay' . ./internal/core/
	$(GO) test -fuzz FuzzFaultSchedule -fuzztime 30s ./internal/fault/

# Full cluster chaos suite (12 fault schedules: crashes, partitions,
# lossy links, migrations mid-stream) with ddmin-shrunk reproducers on
# failure. The -short CI lane runs the 4-schedule subset.
cluster-chaos:
	$(GO) test -race -run TestClusterChaos ./internal/cluster/

# Full evaluation suite at near-paper scale (tens of minutes).
experiments: build
	$(GO) run ./cmd/oddsim -exp all

# Reduced-scale smoke pass of every experiment (about a minute).
quick-experiments: build
	$(GO) run ./cmd/oddsim -exp all -quick

# Golden figure-regression gate: re-run every figure driver at CI scale
# and compare the metrics against internal/golden/testdata/golden.json
# under the tolerance spec. Exits non-zero on any violation.
verify-figures:
	$(GO) run ./cmd/oddsim -golden-check

# Refresh the golden file after an intentional change to a figure driver,
# then re-check so the working tree holds a verified pair.
update-golden:
	$(GO) run ./cmd/oddsim -golden-update
	$(GO) run ./cmd/oddsim -golden-check

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
