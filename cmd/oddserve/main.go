// Command oddserve runs the sharded streaming outlier-detection server:
// the paper's online detectors (distance-based D3 criterion or MDEF)
// behind an HTTP/JSON ingest/query API, with periodic checkpointing for
// seed-exact crash recovery.
//
//	oddserve -addr :8077 -shards 4 -detector distance -window 2000 \
//	         -snapshot /tmp/odds.snap -snapshot-interval 5s
//
// With -cluster the process runs as one node of a multi-node cluster:
// -shards becomes the cluster-global shard space, the node starts empty,
// and a router (oddrouter) assigns shards through the shard admin endpoint.
//
//	oddserve -addr :9101 -cluster -shards 8
//
// -backend picks the estimate-path engine (kernelchain, qn, coreset,
// ewma) and -backend-select routes sensor-id prefixes to other engines,
// so one server can serve different cost/accuracy trade-offs per fleet:
//
//	oddserve -backend kernelchain -backend-select 'hvac-=ewma,chem-=qn'
//
// -drift arms concept-drift adaptation (serve.DefaultDriftConfig: the
// KS/PH/MK bank on a subsample plus the JS model signal); it needs the
// kernelchain default backend and is refused at start-up otherwise.
//
// -debug-addr serves net/http/pprof and runtime/metrics on a listener of
// its own, never on the serving port:
//
//	oddserve -debug-addr 127.0.0.1:6060   # go tool pprof http://127.0.0.1:6060/debug/pprof/profile
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"odds/internal/core"
	"odds/internal/detector"
	"odds/internal/distance"
	"odds/internal/mdef"
	"odds/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8077", "listen address")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof and runtime/metrics on this address, a listener of its own (empty = off)")
		shards     = flag.Int("shards", 4, "number of shard goroutines")
		dim        = flag.Int("dim", 1, "reading dimensionality")
		windowCap  = flag.Int("window", 10000, "sliding window capacity |W|")
		sampleSize = flag.Int("sample", 0, "kernel sample size |R| (default |W|/20)")
		detKind    = flag.String("detector", "distance", "detector kind: distance or mdef")
		radius     = flag.Float64("radius", 0.01, "distance: L∞ neighborhood radius")
		threshold  = flag.Float64("threshold", 45, "distance: neighbor-count threshold")
		mdefR      = flag.Float64("mdef-r", 0.08, "mdef: sampling radius")
		mdefAlphaR = flag.Float64("mdef-alpha-r", 0.01, "mdef: counting radius")
		mdefKSigma = flag.Float64("mdef-k", 3, "mdef: significance factor")
		seed       = flag.Int64("seed", 1, "base seed for per-shard rng derivation")
		queue      = flag.Int("queue", 64, "per-shard mailbox depth (backpressure bound)")
		snapPath   = flag.String("snapshot", "", "snapshot file path (empty disables checkpointing)")
		snapEvery  = flag.Duration("snapshot-interval", 5*time.Second, "periodic checkpoint interval")
		retryAfter = flag.Duration("retry-after", 250*time.Millisecond, "backoff hint on rejected ingest")
		cluster    = flag.Bool("cluster", false, "run as a cluster node (shards become the cluster-global space; a router assigns them)")
		backend    = flag.String("backend", "", "default estimate-path backend: kernelchain|qn|coreset|ewma (empty = kernelchain)")
		backendSel = flag.String("backend-select", "", "per-sensor backend routing, comma-separated prefix=kind rules (longest prefix wins), e.g. 'hvac-=ewma,chem-=qn'")
		driftArm   = flag.Bool("drift", false, "arm drift adaptation with the default detector bank and JS signal (kernelchain default backend only)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	selector, err := parseSelector(*backendSel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oddserve: %v\n", err)
		os.Exit(2)
	}

	ccfg := core.DefaultConfig(*dim)
	ccfg.WindowCap = *windowCap
	ccfg.SampleSize = *sampleSize
	if ccfg.SampleSize == 0 {
		ccfg.SampleSize = *windowCap / 20
		if ccfg.SampleSize < 1 {
			ccfg.SampleSize = 1
		}
	}
	cfg := serve.Config{
		Shards: *shards,
		Pipeline: serve.PipelineConfig{
			Core:     ccfg,
			Kind:     serve.DetectorKind(*detKind),
			Distance: distance.Params{Radius: *radius, Threshold: *threshold},
			MDEF:     mdef.Params{R: *mdefR, AlphaR: *mdefAlphaR, KSigma: *mdefKSigma},
			Seed:     *seed,
			Backend:  detector.Kind(*backend),
			Backends: detector.Params{}.WithDefaults(),
			Selector: selector,
		},
		QueueDepth:    *queue,
		RetryAfter:    *retryAfter,
		SnapshotPath:  *snapPath,
		SnapshotEvery: *snapEvery,
		Cluster:       *cluster,
	}
	if *driftArm {
		cfg.Pipeline.Drift = serve.DefaultDriftConfig()
	}
	if *cluster && *snapPath != "" {
		fmt.Fprintln(os.Stderr, "oddserve: -cluster is incompatible with -snapshot (cluster durability is replication + shipped snapshots)")
		os.Exit(2)
	}

	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *debugAddr != "" {
		at, err := serve.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oddserve: -debug-addr: %v\n", err)
			os.Exit(2)
		}
		log.Printf("oddserve: debug endpoints (/debug/pprof/, /debug/metrics) on %s", at)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Println("oddserve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx) // stop accepting before draining shards
		if err := srv.Close(); err != nil {
			log.Printf("oddserve: close: %v", err)
		}
	}()

	log.Printf("oddserve: listening on %s (shards=%d detector=%s backend=%s window=%d)",
		*addr, cfg.Shards, cfg.Pipeline.Kind, cfg.Pipeline.DefaultBackend(), ccfg.WindowCap)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
}

// parseSelector parses the -backend-select syntax: comma-separated
// prefix=kind rules. Rule validation proper (duplicate prefixes, unknown
// kinds) happens in PipelineConfig.Validate; this only rejects strings
// that do not parse as rules at all.
func parseSelector(s string) ([]serve.BackendRule, error) {
	if s == "" {
		return nil, nil
	}
	var rules []serve.BackendRule
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		prefix, kind, ok := strings.Cut(part, "=")
		if !ok || prefix == "" || kind == "" {
			return nil, fmt.Errorf("-backend-select rule %q is not prefix=kind", part)
		}
		rules = append(rules, serve.BackendRule{Prefix: prefix, Backend: detector.Kind(kind)})
	}
	return rules, nil
}
