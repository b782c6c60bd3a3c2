# Development targets for the odds reproduction.

GO ?= go

.PHONY: all build test race cover check-binfmt check-nodeclient check-jsoncodec check-pushbatch check-onetwin check-onerefresh check-onequery benchmark benchmark-smoke bench bench-all bench-fault bench-rebuild bench-restore serve-smoke cluster-smoke chaos cluster-chaos fuzz-smoke experiments quick-experiments verify-figures update-golden fmt vet clean

# The default verify path includes vet and the race detector: the
# parallel evaluation harness and the serving subsystem are only correct
# if the whole tree stays race-clean.
all: build vet check-binfmt check-nodeclient check-jsoncodec check-pushbatch check-onetwin check-onerefresh check-onequery test race

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

# One node client: the node's HTTP contract (paths, op= vocabulary,
# headers, the status/error-body convention) is spelled in
# internal/serve/client.go and the handlers that answer it. A request
# built anywhere else in serve or cluster, or the shard-admin path or an
# op= query string in any other non-test Go file, is a second copy of the
# contract creeping in. (Query/header .Get( and sync.Once.Do are fine.)
check-nodeclient:
	@bad=$$(grep -rnE 'http\.NewRequest|\.Post\(|\.Do\(req|lient\.Get\(' --include='*.go' --exclude='*_test.go' internal/cluster internal/serve \
		| grep -v '^internal/serve/client\.go:'); \
	vocab=$$(grep -rnE '/admin/shard|"op=' --include='*.go' --exclude='*_test.go' . \
		| grep -v -E '^\./internal/serve/(http|admin|client)\.go:'); \
	if [ -n "$$bad$$vocab" ]; then \
		echo "node HTTP contract spelled outside internal/serve/client.go and its handlers:"; \
		echo "$$bad"; echo "$$vocab"; exit 1; \
	fi

# One JSON ingest codec: node and router decode /ingest bodies with
# serve.DecodeIngestJSON and render replies with serve.AppendIngestJSON.
# A json.NewDecoder( in either handler file is the reflection path — and
# its decode into an unzeroed pooled slice — creeping back.
check-jsoncodec:
	@bad=$$(grep -n 'json\.NewDecoder(' internal/serve/http.go internal/cluster/router_http.go); \
	if [ -n "$$bad" ]; then \
		echo "encoding/json decoder in an /ingest handler file (use serve.DecodeIngestJSON):"; \
		echo "$$bad"; exit 1; \
	fi

# One publish per sub-batch: a shard hands the hub its whole sub-batch
# (subHub.publishBatch, subscriber.offerBatch — one lock and at most one
# wake-up per subscriber). A non-test hub.publish( or sub.offer( in
# internal/serve is the per-reading push path creeping back. (shard.offer,
# the mailbox's non-blocking send, is a different thing.)
check-pushbatch:
	@bad=$$(grep -nE 'hub\.publish\(|sub\.offer\(|\(sub \*subscriber\) offer\(' internal/serve/*.go | grep -v '_test\.go:'); \
	if [ -n "$$bad" ]; then \
		echo "per-reading subscriber publish in internal/serve (use publishBatch/offerBatch):"; \
		echo "$$bad"; exit 1; \
	fi

# One twin: the verdict oracle (a pipeline per shard rebuilt from /stats,
# the accept/re-serve/gap and push-path rules) lives in internal/twin.
# PipelineConfigFor( anywhere else — tests included — is a second twin
# being written; wire.go defines it and drift_serve_test.go pins its fields.
check-onetwin:
	@bad=$$(grep -rn 'PipelineConfigFor(' --include='*.go' internal cmd *.go \
		| grep -v -e '^internal/twin/' -e '^internal/serve/wire\.go:' -e '^internal/serve/drift_serve_test\.go:'); \
	if [ -n "$$bad" ]; then \
		echo "a verdict twin outside internal/twin (use twin.New):"; \
		echo "$$bad"; exit 1; \
	fi

# One refresh path: every core.Estimator patches its kernel model in place
# (kernel.NewMaintained, then BeginMaintain/SetSlot/FinishMaintain), and a
# caller keeping a model across arrivals holds a kernel Clone. The opt-in,
# the tracking switch, the immutable rescale and serve's private clone are
# gone; any of them in non-test code, or a from-scratch kernel.FromSample(
# or kernel.New( in internal/core, is a second refresh path coming back.
check-onerefresh:
	@bad=$$(grep -rnE 'EnableIncrementalModel\(|EnableChangeTracking\(|WithWindowCount\(|cloneModel\(' --include='*.go' --exclude='*_test.go' internal cmd examples *.go); \
	core=$$(grep -nE 'kernel\.(FromSample|New)\(' --include='*.go' -r internal/core | grep -v '_test\.go:'); \
	if [ -n "$$bad$$core" ]; then \
		echo "a second kernel-model refresh path (patch the maintained model; keep a Clone):"; \
		echo "$$bad"; echo "$$core"; exit 1; \
	fi

# One query surface: a kernel model answers its own queries. A query
# handle type, the estimator accessors that cached one, or the per-point
# batch entry points must not come back; NewQuerier is a deprecated shim
# that only bench/ may call.
check-onequery:
	@bad=$$(grep -rnE '\bQuerier\b|CachedQuerier\(|CountBatch\(|DensityBatch\(' --include='*.go' --exclude='*_test.go' internal cmd examples *.go); \
	shim=$$(grep -rn 'NewQuerier(' --include='*.go' internal cmd examples *.go | grep -v 'func (e \*Estimator) NewQuerier() \*Estimator'); \
	if [ -n "$$bad$$shim" ]; then \
		echo "a second way to query a kernel model (query the kernel.Estimator directly):"; \
		echo "$$bad"; echo "$$shim"; exit 1; \
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
# counts for stable ns/op (the index's serving-shape case slides a
# |W| = 10⁴ window, so it gets a window's worth and more).
bench:
	$(GO) test -run=NONE -bench=BenchmarkKernel -benchmem -benchtime 1000x ./internal/kernel/
	$(GO) test -run=NONE -bench=BenchmarkDynIndexSlide -benchmem -benchtime 200000x ./internal/distance/
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
# one in-place maintenance cycle vs a from-scratch kernel rebuild, and the
# per-arrival detector refresh (watch the full_builds and models_per_10k
# metrics). The serving hot loop the savings feed is the
# pipeline.* rows of `go run ./bench -workload kernel-steady -trace 1`.
bench-rebuild:
	$(GO) test -run=NONE -bench='BenchmarkMaintainCycle|BenchmarkFromScratchRebuild' -benchmem -benchtime 20000x ./internal/kernel/
	$(GO) test -run=NONE -bench=BenchmarkEstimatorRefresh -benchmem -benchtime 1s ./internal/core/

# Restart recovery outside the frozen benchmark: serve.New restoring a
# checkpoint file in light-fanout's shape (8 shards: ewma, qn, coreset) and
# kernel-steady's (2 kernelchain shards), |W| = 10⁴, |R| = 500, every shard
# 2·|W| arrivals in. Run it on the parent and the change in one session for
# a restore A/B; CI runs RESTORE_BENCHTIME=1x for liveness only.
RESTORE_BENCHTIME = 20x
bench-restore:
	$(GO) test -run=NONE -bench=BenchmarkServerRestore -benchmem -benchtime $(RESTORE_BENCHTIME) ./internal/serve/

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

# The coverage-guided smokes CI runs, listed once: package:target[:extra
# go-test flag], each with what the target holds and why it is here. The
# race-short lane already runs every target's seed corpus.
FUZZTIME = 20s
# Arbitrary crash/link/partition schedules compile or are refused, and a
# compiled plan replays identically.
FUZZ_SMOKE := internal/fault:FuzzFaultSchedule
# Maintenance histories: the in-place kernel model must equal a from-scratch
# rebuild (the differential suites cover fixed histories only).
FUZZ_SMOKE += internal/kernel:FuzzIncrementalVsRebuild
# Detector configs and value streams: incremental KS/PH/MK statistics match
# their brute-force references bit-for-bit at every check, and a stationary
# prefix respects the false-alarm bound.
FUZZ_SMOKE += internal/drift:FuzzDriftDetector
# The ODWP batch decoder never panics on arbitrary bytes, and a frame that
# decodes re-encodes bit-identical (canonical encoding).
FUZZ_SMOKE += internal/serve:FuzzDecodeBatch
# Value streams and sensor routings: a pipeline fed Pipeline.Apply (what a
# replica runs) holds the snapshot bytes of one fed IngestSensor at every
# check, across a restore, and serves the same verdicts, Exact included,
# from its first reading after promotion — every backend, both criteria,
# drift armed with a window shrink. One run is a whole stream
# (milliseconds), so cap the minimizer, which otherwise spends the budget
# shrinking the first few inputs instead of mutating.
FUZZ_SMOKE += internal/serve:FuzzApplyVsIngest:-fuzzminimizetime=1s
# The JSON /ingest scanner never panics, and either declines a body or
# decodes exactly what json.Unmarshal into a zeroed request does (same
# readings bit-for-bit, same error text on the way out).
FUZZ_SMOKE += internal/serve:FuzzIngestJSON
# The ODDB detector blob decoder, every backend kind: Restore never panics,
# fails closed on kind/fingerprint mismatches, and a blob that restores
# re-snapshots bit-identical and then ingests without panicking.
FUZZ_SMOKE += internal/detector:FuzzDetectorSnapshot
# Window sizes, eps and stream regimes: the variance sketch, whose merge
# pass runs on as few as every 16th arrival, matches the exact window
# variance to float precision while the window fills and within eps after,
# and never holds more buckets than the Theorem 1 cap.
FUZZ_SMOKE += internal/varest:FuzzVarSketch
# Add / evict-oldest / remove-any / count / count-up-to histories at
# d = 1..3 on a half-cell grid (duplicates and cell-boundary points
# everywhere): the FIFO inline buckets agree with a plain slice + CountNaive.
FUZZ_SMOKE += internal/distance:FuzzDynIndex
# Insert and query-driven-flush histories at five eps (batches on both sides
# of the insertion-sort cutoff): the one-pass GK flush leaves the tuples, n
# and pending of the two-pass flush it replaced, bit for bit, after every step.
FUZZ_SMOKE += internal/quantile:FuzzGK

fuzz-smoke:
	@set -e; for row in $(FUZZ_SMOKE); do \
		pkg=$${row%%:*}; rest=$${row#*:}; target=$${rest%%:*}; extra=$${rest#$$target}; \
		set -x; $(GO) test -fuzz $$target -fuzztime $(FUZZTIME) $${extra#:} ./$$pkg/; { set +x; } 2>/dev/null; \
	done

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
