# Development targets for the odds reproduction.

GO ?= go

.PHONY: all build test race cover check-binfmt check-nodeclient check-jsoncodec check-pushbatch check-onetwin check-onerefresh check-onequery check-onecalendar check-onemodel check-oneconfig check-onewindow check-noqnsketch check-replicafold check-oneshardfile check-onewake check-oneindex check-noexact check-nofma benchmark benchmark-smoke bench bench-all bench-fault bench-rebuild bench-restore bench-replicate bench-subscribe serve-smoke cluster-smoke chaos cluster-chaos fuzz-smoke experiments quick-experiments verify-figures update-golden fmt vet clean

# The default verify path includes vet and the race detector: the
# parallel evaluation harness and the serving subsystem are only correct
# if the whole tree stays race-clean.
all: build vet check-binfmt check-nodeclient check-jsoncodec check-pushbatch check-onetwin check-onerefresh check-onequery check-onecalendar check-onemodel check-oneconfig check-onewindow check-noqnsketch check-replicafold check-oneshardfile check-onewake check-oneindex check-noexact check-nofma test race

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
# (subHub.publishBatch, subscriber.offerBatch — one lock per subscriber;
# the wake-up is the request's, see check-onewake). A non-test
# hub.publish( or sub.offer( in internal/serve is the per-reading push
# path creeping back. (shard.offer, the mailbox's non-blocking send, is a
# different thing.)
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

# One refresh path and one layout path: every kernel model starts empty
# (kernel.NewEmpty) and gets every layout, its first included, from the
# patch cycle (BeginMaintain/SetSlot/FinishMaintain: ordered insert plus
# relayout's sort), and a caller keeping a model across arrivals holds a
# kernel Clone. The opt-in, the tracking switch, the immutable rescale and
# serve's private clone are gone; any of them in non-test code, a
# from-scratch kernel.FromSample( or kernel.New( in internal/core, a bulk
# NewMaintained( outside internal/kernel, or a stable sort in
# internal/kernel (the bulk constructor's own layout) is a second path
# coming back.
check-onerefresh:
	@bad=$$(grep -rnE 'EnableIncrementalModel\(|EnableChangeTracking\(|WithWindowCount\(|cloneModel\(' --include='*.go' --exclude='*_test.go' internal cmd examples *.go); \
	core=$$(grep -nE 'kernel\.(FromSample|New)\(' --include='*.go' -r internal/core | grep -v '_test\.go:'); \
	bulk=$$(grep -rn 'NewMaintained(' --include='*.go' --exclude='*_test.go' internal cmd examples *.go | grep -v '^internal/kernel/'); \
	stable=$$(grep -nE 'SortStable|sort\.(Stable|SliceStable)\(' internal/kernel/*.go | grep -v '_test\.go:'); \
	if [ -n "$$bad$$core$$bulk$$stable" ]; then \
		echo "a second kernel-model refresh or layout path (start from kernel.NewEmpty and patch; keep a Clone):"; \
		echo "$$bad"; echo "$$core"; echo "$$bulk"; echo "$$stable"; exit 1; \
	fi

# One query surface: a kernel model answers its own queries. A query
# handle type, the estimator accessors that cached one, or the batch entry
# points (per point, per box, or the mdef interface that dispatched to
# one) must not come back; NewQuerier is a deprecated shim that only bench/
# may call.
check-onequery:
	@bad=$$(grep -rnE '\bQuerier\b|CachedQuerier\(|CountBatch\(|DensityBatch\(|CountBoxBatch|BoxBatcher' --include='*.go' --exclude='*_test.go' internal cmd examples *.go); \
	shim=$$(grep -rn 'NewQuerier(' --include='*.go' internal cmd examples *.go | grep -v 'func (e \*Estimator) NewQuerier() \*Estimator'); \
	if [ -n "$$bad$$shim" ]; then \
		echo "a second way to query a kernel model (query the kernel.Estimator directly):"; \
		echo "$$bad"; echo "$$shim"; exit 1; \
	fi

# One calendar: a chain sample keeps each event kind (expiry, successor
# capture) in one min-heap ordered by arrival index and scheduling
# sequence. A map[uint64][]int, or the pooled list backing that fed one
# (freeLists, recycleList), in non-test internal/sample code is the
# hash-map schedule, and its ≈ 350 KB per served chain, coming back.
check-onecalendar:
	@bad=$$(grep -nE 'map\[uint64\]\[\]int|freeLists|recycleList' internal/sample/*.go | grep -v '_test\.go:'); \
	if [ -n "$$bad" ]; then \
		echo "a hash-map event schedule in internal/sample (use the calendar):"; \
		echo "$$bad"; exit 1; \
	fi

# One kernel model: every kernel.Estimator is patched in place and encodes
# as ODKM. The immutable form's magic ("ODDS", 0x4f444453), its encoder
# constant, the form test, or a nil check on the maintenance state in
# non-test internal/kernel code is the second representation coming back;
# so is a from-scratch kernel.FromSample/kernel.New build in a detector
# backend (the from-scratch reference in brute_test.go keeps one).
check-onemodel:
	@bad=$$(grep -nE '0x4f444453|marshalMagic|IsMaintained|mnt == nil' internal/kernel/*.go | grep -v '_test\.go:'); \
	det=$$(grep -nE 'kernel\.(FromSample|New)\(' internal/detector/*.go | grep -v '_test\.go:'); \
	if [ -n "$$bad$$det" ]; then \
		echo "a second kernel-model representation (patch the one maintained model):"; \
		echo "$$bad"; echo "$$det"; exit 1; \
	fi

# One config encoding: the pipeline config serialises once, as the JSON
# /stats serves, and every fingerprint is built from that JSON. A
# hand-written encoder in non-test internal/detector (fingerprintPrefix, a
# per-engine ...Fingerprint() besides Config.fingerprint), a binfmt write in
# serve's fingerprint, or a PipelineConfig field or JSON key re-declared
# in StatsResponse is a second encoding coming back.
check-oneconfig:
	@det=$$(grep -nE 'fingerprintPrefix|func .*[A-Za-z]Fingerprint\(' internal/detector/*.go | grep -v '_test\.go:'); \
	srv=$$(awk '/^func fingerprint\(/{on=1} on&&/binfmt|w\.[A-Z]/{print FILENAME":"FNR": "$$0} on&&/^}/{on=0}' \
		$$(ls internal/serve/*.go | grep -v '_test\.go$$')); \
	cfg=$$(awk '/^type PipelineConfig struct/{on=1;next} on&&/^}/{exit} on' internal/serve/pipeline.go); \
	names=$$(echo "$$cfg" | grep -oE '^\s[A-Z][A-Za-z]*' | tr -d '\t' | paste -sd'|' -); \
	keys=$$(echo "$$cfg" | grep -oE 'json:"[a-z_]+' | cut -d'"' -f2 | paste -sd'|' -); \
	if [ -z "$$names" ] || [ -z "$$keys" ]; then echo "no PipelineConfig struct in internal/serve/pipeline.go"; exit 1; fi; \
	dup=$$(awk '/^type StatsResponse struct/{on=1;next} on&&/^}/{exit} on{print FILENAME":"FNR": "$$0}' internal/serve/wire.go \
		| grep -E ": \s($$names)\s|json:\"($$keys)[\",]"); \
	if [ -n "$$det$$srv$$dup" ]; then \
		echo "a second config encoding (serialise PipelineConfig once, as JSON):"; \
		echo "$$det"; echo "$$srv"; echo "$$dup"; exit 1; \
	fi

# One sorted window: the drift bank's KS and Mann–Kendall tests and the qn
# backend share window.Sorted (internal/window/sorted.go), a ring in
# arrival order beside a sorted copy. A ring or sorted []float64 field
# elsewhere in non-test internal/drift, internal/detector or internal/window
# code is a hand-rolled second window coming back; a Resize method is the
# resize path no program runs.
check-onewindow:
	@bad=$$(grep -nE '^\s+[A-Za-z_, ]*\b(ring|sorted)\b[A-Za-z_, ]*\s\[\]float64|func \([^)]*\) Resize\(' \
		internal/drift/*.go internal/detector/*.go internal/window/*.go \
		| grep -vE '_test\.go:|^internal/window/sorted\.go:'); \
	if [ -n "$$bad" ]; then \
		echo "a second sliding window or a resize path (use window.Sorted):"; \
		echo "$$bad"; exit 1; \
	fi

# The qn backend keeps exact windows, not sketches: a non-test
# internal/detector file importing odds/internal/quantile is the GK
# sketches, their flush-boundary protocol and their codec coming back.
check-noqnsketch:
	@bad=$$(grep -ln '"odds/internal/quantile"' $$(ls internal/detector/*.go | grep -v '_test\.go$$')); \
	if [ -n "$$bad" ]; then \
		echo "a GK sketch in internal/detector (qn runs on window.Sorted):"; \
		echo "$$bad"; exit 1; \
	fi

# Replicas fold, they do not judge: a follower's Pipeline.Apply hands the
# primary's verdict bit to the backend's Fold. A detector Ingest( in
# non-test internal/serve code outside Pipeline.IngestSensor (the server's
# own Ingest is called only from tests), or a QueryOutlier call in
# Pipeline.Apply, is the follower re-running the estimate query.
check-replicafold:
	@bad=$$(awk '/^func /{fn=$$0} /\.Ingest\(/ && !/^[[:space:]]*\/\// && fn !~ /^func \(p \*Pipeline\) IngestSensor\(/{print FILENAME":"FNR": "$$0}' \
		$$(ls internal/serve/*.go | grep -v '_test\.go$$')); \
	apply=$$(awk '/^func \(p \*Pipeline\) Apply\(/{on=1;print "found"} on&&/QueryOutlier/{print FILENAME":"FNR": "$$0} on&&/^}/{on=0}' internal/serve/pipeline.go); \
	if [ -z "$$apply" ]; then echo "no Pipeline.Apply in internal/serve/pipeline.go"; exit 1; fi; \
	apply=$$(echo "$$apply" | grep -v '^found$$'); \
	if [ -n "$$bad$$apply" ]; then \
		echo "a replica judging what its primary already judged (fold the shipped bit):"; \
		echo "$$bad"; echo "$$apply"; exit 1; \
	fi

# One shard format: a shard travels between nodes as a one-shard snapshot
# file (ODSV), and a cluster node starts empty until the router installs
# its shards. The ODSH ship frame, GET /admin/shards, op=seal, or an Owned
# or Replicas field in serve.Config, in non-test code under internal, cmd
# or the root package, is the second format or a knob nothing sets.
check-oneshardfile:
	@bad=$$(grep -rnE 'shipMagic|AppendShipFrame|DecodeShipFrame|HostedShards|AdminShardInfo|/admin/shards|ShardSeal|SealShard' \
		--include='*.go' --exclude='*_test.go' internal cmd *.go); \
	cfg=$$(awk '/^type Config struct/{on=1} on&&/^}/{on=0} on&&/^[[:space:]]+(Owned|Replicas)[[:space:],]/{print FILENAME":"FNR": "$$0}' \
		$$(ls internal/serve/*.go | grep -v '_test\.go$$')); \
	if [ -n "$$bad$$cfg" ]; then \
		echo "a second shard format, shard listing, seal op or start-up placement knob (ship one-shard ODSV files; install through the router):"; \
		echo "$$bad"; echo "$$cfg"; exit 1; \
	fi

# One wake-up per ingest request: offerBatch stores a sub-batch's events
# and marks the subscriber, and the request's deferred subHub.wake sends on
# each marked subscriber's notify once, after its last sub-batch. The only
# other send is offerBatch's half-full branch (a ring at least half full
# wakes its stream at once). A send on notify anywhere else in non-test
# internal/serve code is the per-sub-batch wake-up coming back.
check-onewake:
	@out=$$(awk 'FNR==1{fn=""} /^func /{fn=$$0; cs=""} \
		/^[[:space:]]*(case |default:)/ && !/notify[[:space:]]*<-/{cs=$$0} \
		/notify[[:space:]]*<-/ && !/^[[:space:]]*\/\//{ \
			if (fn ~ /^func \(h \*subHub\) wake\(/) print "hub"; \
			else if (fn ~ /^func \(sub \*subscriber\) offerBatch\(/ && cs ~ /case halfFull:/) print "half"; \
			else print "bad " FILENAME ":" FNR ": " $$0 }' \
		$$(ls internal/serve/*.go | grep -v '_test\.go$$')); \
	bad=$$(echo "$$out" | grep '^bad ' | cut -c5-); \
	if [ -n "$$bad" ]; then \
		echo "a subscriber wake-up outside subHub.wake and offerBatch's half-full branch (mark the subscriber; the request wakes it once):"; \
		echo "$$bad"; exit 1; \
	fi; \
	for want in hub half; do \
		if ! echo "$$out" | grep -qx "$$want"; then \
			echo "no notify send in $$want (subHub.wake and offerBatch's half-full branch each hold one)"; exit 1; \
		fi; \
	done

# One way to count a neighbourhood: exact neighbor counts run on
# distance.DynIndex (BruteForce-D loads one) and exact MDEF cell counts on
# mdef.DynTruth (BruteForce-M loads one), and both key their grid cells
# with distance.AppendCellKey. A static grid (type Index struct,
# NewIndex(, cellKey() in non-test internal/distance, or the zigzag cell
# key written out anywhere in non-test Go outside AppendCellKey, is a
# second counting path coming back.
check-oneindex:
	@bad=$$(grep -nE 'type Index struct|NewIndex\(|cellKey\(' internal/distance/*.go | grep -v '_test\.go:'); \
	key=$$(awk -v pat='uint32(c<<1) ^ uint32(c>>31)' 'FNR==1{fn=""} /^func /{fn=$$0} /^}/{fn=""} \
		index($$0, pat) && fn !~ /^func AppendCellKey\(/{print FILENAME":"FNR": "$$0}' \
		$$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*')); \
	if [ -n "$$bad$$key" ]; then \
		echo "a second exact-count path or cell-key encoding (count on DynIndex/DynTruth; key cells with distance.AppendCellKey):"; \
		echo "$$bad"; echo "$$key"; exit 1; \
	fi

# No ground truth in the serving tier: BruteForce-D and BruteForce-M are
# the paper's offline baselines (§10), not part of the online detector, so
# a shard keeps no true window, exact index or window shrink. DynIndex,
# DynTruth, ShrinkFrac or shrinkWindow in non-test internal/serve code, or
# an Exact field in serve.Event, is the exact window coming back.
check-noexact:
	@files=$$(ls internal/serve/*.go | grep -v '_test\.go$$'); \
	bad=$$(grep -nE 'DynIndex|DynTruth|ShrinkFrac|shrinkWindow' $$files); \
	ev=$$(awk '/^type Event struct/{on=1;print "found";next} on&&/^}/{on=0} \
		on&&/^[[:space:]]+Exact[[:space:]]/{print FILENAME":"FNR": "$$0}' $$files); \
	if ! echo "$$ev" | grep -qx found; then echo "no type Event struct in non-test internal/serve"; exit 1; fi; \
	ev=$$(echo "$$ev" | grep -v '^found$$'); \
	if [ -n "$$bad$$ev" ]; then \
		echo "exact ground truth in the serving tier (BruteForce-D/M are offline baselines; serve the estimate):"; \
		echo "$$bad"; echo "$$ev"; exit 1; \
	fi

# One floating-point semantics: the Go spec lets a compiler fuse x*y + z
# into one rounding, even across statements. amd64 never does; arm64,
# riscv64, loong64, ppc64le and s390x do. So a product that feeds a sum
# is written float64(x*y), the spec's way to forbid fusion, and every
# architecture computes the verdicts and golden numbers amd64 computes.
# For each arch below this builds the non-test code outside bench/ with
# -S, tracks the function from each STEXT line, and fails on any of
#   arm64 riscv64 loong64: FMADDD FMSUBD FNMADDD FNMSUBD FMADDS FMSUBS FNMADDS FNMSUBS
#   ppc64le s390x:         FMADD FMSUB FNMADD FNMSUB FMADDS FMSUBS FNMADDS FNMSUBS
# naming the function and the arch. A second leg builds the test binaries
# of detector, mdef, kernel and distance the same way and fails on a fused
# op in a bit-exact oracle (a function named Brute*, brute*, naive* or
# Naive*). A listing
# with no STEXT line for kernel.intervalMass is an empty or mistargeted
# build and fails too. The build is offline with the installed toolchain.
check-nofma:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	pkgs=$$($(GO) list ./... | grep -v '/bench$$'); bad=0; \
	for a in arm64 riscv64 loong64 ppc64le s390x; do \
		case $$a in \
			ppc64le|s390x) ops='FN?M(ADD|SUB)S?' ;; \
			*) ops='FN?M(ADD|SUB)[DS]' ;; \
		esac; \
		GOARCH=$$a $(GO) build -gcflags='odds/...=-S' $$pkgs 2>"$$tmp/code.s" \
			|| { tail -20 "$$tmp/code.s"; echo "check-nofma: $$a build failed"; exit 1; }; \
		GOARCH=$$a $(GO) test -c -o /dev/null -gcflags='odds/...=-S' \
			./internal/detector ./internal/mdef ./internal/kernel ./internal/distance 2>"$$tmp/test.s" \
			|| { tail -20 "$$tmp/test.s"; echo "check-nofma: $$a test build failed"; exit 1; }; \
		for leg in code test; do \
			awk -F'\t' -v arch=$$a -v leg=$$leg -v ops="^($$ops)$$" ' \
				/^[^\t].* STEXT /{ split($$0, w, " "); fn = w[1]; if (fn == "odds/internal/kernel.intervalMass") seen = 1; next } \
				$$3 ~ ops && (leg == "code" || fn ~ /\.(Brute|brute|naive|Naive)/) { n[fn]++; total++ } \
				END { \
					if (!seen) { print "check-nofma: " arch " " leg " listing: no STEXT line for odds/internal/kernel.intervalMass (empty or mistargeted build)"; exit 1 } \
					what = leg == "code" ? "non-test code" : "test oracles"; \
					for (f in n) print "check-nofma: " arch " " what ": " n[f] " fused op(s) in " f; \
					print "check-nofma: " arch " " what ": " total + 0 " fused op(s)"; \
					exit (total > 0) }' "$$tmp/$$leg.s" || bad=1; \
		done; \
	done; \
	if [ $$bad -ne 0 ]; then \
		echo "check-nofma failed: write a product that feeds a sum as float64(x*y), so every arch rounds as amd64 does"; exit 1; \
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
# |W| = 10⁴ window, so it gets a window's worth and more). The chain-sample
# push at the serving shape (|R| = 500, |W| = 10⁴, recycling on) is the
# micro-number beside sample.chain.push_ns; its allocs/op must read 0.
bench:
	$(GO) test -run=NONE -bench=BenchmarkKernel -benchmem -benchtime 1000x ./internal/kernel/
	$(GO) test -run=NONE -bench=BenchmarkDynIndexSlide -benchmem -benchtime 200000x ./internal/distance/
	$(GO) test -run=NONE -bench=BenchmarkChainPush -benchmem -benchtime 200000x ./internal/sample/
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
# metrics). The from-scratch rebuild is kernel.New, which lays out an empty
# model in one patch cycle (every slot inserted, then one relayout) — the
# cost a model pays once, at its first refresh. The serving hot loop the savings feed is the
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

# A cluster-ops follower's work outside the frozen benchmark: 256-reading
# ODRP frames decoded and folded through a replica shard of the
# kernelchain pipeline (|W| = 10⁴, |R| = 500, d = 1) at steady state,
# reported as ns/reading beside allocs/op. Alternate it with the parent
# for a replication A/B; CI runs REPLICATE_BENCHTIME=1x for liveness only.
REPLICATE_BENCHTIME = 200x
bench-replicate:
	$(GO) test -run=NONE -bench=BenchmarkReplicateApply -benchmem -benchtime $(REPLICATE_BENCHTIME) ./internal/serve/

# light-fanout's push path outside the frozen benchmark: 8 shards, 4096
# sensors, 64-reading requests through Server.Ingest with one draining
# binary subscriber, reported as wakes/req and flushes/req beside ns/op.
# Alternate it with the parent for a push-path A/B; CI runs
# SUBSCRIBE_BENCHTIME=1x for liveness only.
SUBSCRIBE_BENCHTIME = 2000x
bench-subscribe:
	$(GO) test -run=NONE -bench=BenchmarkIngestSubscribed -benchmem -benchtime $(SUBSCRIBE_BENCHTIME) ./internal/serve/

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
# Value streams and sensor routings: a pipeline fed Pipeline.Apply with the
# primary's verdict bits (what a replica runs) holds the snapshot bytes of
# one fed IngestSensor at every check, across a restore, and serves the
# same verdicts from its first reading after promotion — every backend,
# both criteria, drift armed. One run
# is a whole stream (milliseconds), so cap the minimizer, which otherwise
# spends the budget shrinking the first few inputs instead of mutating.
FUZZ_SMOKE += internal/serve:FuzzApplyVsIngest:-fuzzminimizetime=1s
# The JSON /ingest scanner never panics, and either declines a body or
# decodes exactly what json.Unmarshal into a zeroed request does (same
# readings bit-for-bit, same error text on the way out).
FUZZ_SMOKE += internal/serve:FuzzIngestJSON
# The ODRP replication frame decoder never panics on arbitrary bytes, and a
# frame that decodes — version 2, a ⌈n/8⌉-byte verdict bitmap, pad bits
# zero — re-encodes bit-identical.
FUZZ_SMOKE += internal/serve:FuzzReplFrame
# The ODSV snapshot-file decoder (a checkpoint at start-up, a one-shard file
# at op=install) and the install's slot rule never panic, and a file that
# decodes re-encodes bit-identical.
FUZZ_SMOKE += internal/serve:FuzzSnapshotFile
# The ODDB detector blob decoder, every backend kind: Restore never panics,
# fails closed on kind/fingerprint mismatches, and a blob that restores
# re-snapshots bit-identical and then ingests without panicking.
FUZZ_SMOKE += internal/detector:FuzzDetectorSnapshot
# Windows of 2 to 16, four eps (zero slack to 0.5) and 1-D/2-D streams on a
# 1/64 grid laced with NaN, ±Inf, -0 and overflowing differences: the qn
# backend's verdicts, windows and scale bits equal the plain-slice replay
# after every arrival and across restores.
FUZZ_SMOKE += internal/detector:FuzzQnVsBrute
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
# Add and advance-and-pop histories over windows of 1 to 64: the chain
# sample's event calendar pops each arrival's events in the order the hash
# map of slot lists it replaced held them, never keeps a passed index, and
# sorts for the marshaler into the map's ascending-index, verbatim-list order.
FUZZ_SMOKE += internal/sample:FuzzCalendar

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
