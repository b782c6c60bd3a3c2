// Command oddload is the closed-loop load generator and acceptance oracle
// for oddserve: it replays a seeded multi-sensor stream against the
// server while running an identically-configured in-process twin
// (internal/twin), and fails unless every served verdict is bit-identical
// to the twin's.
//
// Runs are idempotent across server restarts: oddload reads per-shard
// arrival counts from /stats, fast-forwards its twin through the prefix
// the server has already processed, and sends only the remainder — so
// after a crash+restore from snapshot the same invocation re-sends the
// lost tail and re-verifies it.
//
// -wire binary sends batches over the ODWP binary frame format instead
// of JSON (same verdict oracle, so the two encodings are A/B'd for
// free); -subscribe additionally opens a /subscribe stream and verifies
// every pushed verdict against the twin, requiring delivered events
// plus gap-counted drops to conserve the sent total.
//
//	oddload -addr http://localhost:8077 -n 50000 -sensors 16 -batch 128
//	oddload -addr http://localhost:8077 -n 50000 -wire binary -subscribe
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"odds/internal/twin"
)

func main() {
	var opts twin.Options
	flag.StringVar(&opts.BaseURL, "addr", "http://localhost:8077", "server base URL")
	flag.IntVar(&opts.Sensors, "sensors", 8, "number of simulated sensors")
	flag.IntVar(&opts.Total, "n", 20000, "total readings in the seeded stream")
	flag.IntVar(&opts.Batch, "batch", 64, "readings per ingest request")
	flag.StringVar(&opts.Stream, "stream", "mixture", "per-sensor source (mixture, shifting, engine, enviro)")
	flag.Int64Var(&opts.Seed, "seed", 1, "load stream seed")
	flag.IntVar(&opts.MaxRetries, "max-retries", 0, "max consecutive backpressure retries, reset by any accepted reading (0 = unlimited)")
	flag.StringVar(&opts.Encoding, "wire", "json", "ingest encoding: json or binary (ODWP)")
	flag.BoolVar(&opts.Subscribe, "subscribe", false, "also verify verdicts pushed over a /subscribe stream")
	asJSON := flag.Bool("json", false, "print the report as JSON")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	rep, err := twin.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oddload:", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
		return
	}
	fmt.Printf("sent %d readings (%d caught up, %d rejections) in %v — %.0f readings/s\n",
		rep.Sent, rep.CaughtUp, rep.Rejections, rep.Elapsed.Round(1e6), rep.Throughput)
	fmt.Printf("client latency per reading: p50 %.1fµs p99 %.1fµs\n", rep.ClientP50us, rep.ClientP99us)
	fmt.Printf("verdicts: %d outliers, %d/%d agree with in-process twin\n", rep.Outliers, rep.Sent, rep.Sent)
	if opts.Subscribe {
		fmt.Printf("stream: %d events delivered, %d dropped (gap-counted), all agree\n",
			rep.StreamEvents, rep.StreamDropped)
	}
}
