// Command oddrouter fronts a set of oddserve cluster nodes with a
// versioned shard→node map (shard s starts on node s mod N, in -nodes
// order, its replica on the next node): it routes ingest batches
// over the ODWP binary wire, proxies queries to shard primaries, merges
// /subscribe streams with per-shard sequencing, migrates shards live
// (snapshot shipping), and fails primaries over to their replicas when
// health checks lapse.
//
//	oddserve -addr :9101 -cluster -shards 8 &
//	oddserve -addr :9102 -cluster -shards 8 &
//	oddserve -addr :9103 -cluster -shards 8 &
//	oddrouter -addr :8077 -nodes http://localhost:9101,http://localhost:9102,http://localhost:9103
//
// The router exposes the same hot-path HTTP surface as a single node, so
// oddload (and its twin verdict oracle) runs unchanged against it.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"odds/internal/cluster"
)

func main() {
	var (
		addr        = flag.String("addr", ":8077", "listen address")
		nodes       = flag.String("nodes", "", "comma-separated node base URLs (required)")
		shards      = flag.Int("shards", 0, "cluster-global shard count (0 = learn from nodes)")
		replicate   = flag.Bool("replicate", true, "establish a replica chain per shard")
		healthEvery = flag.Duration("health-interval", 1*time.Second, "health probe interval (0 disables the loop; use POST /admin/healthtick)")
		healthAfter = flag.Int("health-threshold", 2, "consecutive failed probes before failover")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *nodes == "" {
		fmt.Fprintln(os.Stderr, "oddrouter: -nodes is required")
		os.Exit(2)
	}
	nodeURLs := strings.Split(*nodes, ",")
	for i := range nodeURLs {
		nodeURLs[i] = strings.TrimRight(strings.TrimSpace(nodeURLs[i]), "/")
	}

	r, err := cluster.NewRouter(cluster.Options{
		Nodes:           nodeURLs,
		Shards:          *shards,
		Replicate:       *replicate,
		HealthThreshold: *healthAfter,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "oddrouter:", err)
		os.Exit(2)
	}

	stop := make(chan struct{})
	if *healthEvery > 0 {
		go func() {
			t := time.NewTicker(*healthEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if promoted := r.HealthTick(); len(promoted) > 0 {
						log.Printf("oddrouter: failover promoted shards %v (map epoch %d)",
							promoted, r.CurrentMap().Epoch)
					}
				}
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: r.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Println("oddrouter: shutting down")
		close(stop)
		_ = httpSrv.Close()
	}()

	m := r.CurrentMap()
	log.Printf("oddrouter: listening on %s (nodes=%d shards=%d epoch=%d replicate=%t)",
		*addr, len(m.Nodes), m.Shards, m.Epoch, *replicate)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
}
