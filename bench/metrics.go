package main

// metricDef names one metric the benchmark prints. The tables below are
// the single source of the names and units; BENCHMARK.json repeats them
// (a test holds the two together).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	layer  string  // per-layer only: the module it measures
	moves  string  // per-layer only: the end-to-end metric it should move
}

// endToEnd is what a user of the serving stack sees. Every workload prints
// every one of them.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "readings_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "paced_ok_share", unit: "share", better: "higher", bound: 0.05},
	{name: "query_rtt_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "recovery_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.10},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick keeps the metrics defs names, with their units. A value the run did
// not produce is a bug in the run, so it is reported, not defaulted.
func pick(defs []metricDef, values map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, missing
}

// perLayer is what the traced run prints: one layer (module) per block,
// with the end-to-end metric each should move. None has a bound.
var perLayer = []metricDef{
	// The benchmark's own generator: guards that it is not the bottleneck.
	{name: "gen.encode_ns_per_reading", unit: "ns", better: "lower", layer: "gen", moves: "setup_s"},
	{name: "gen.late_share", unit: "share", better: "lower", layer: "gen", moves: "paced_ok_share"},
	{name: "stream.next_ns", unit: "ns", better: "lower", layer: "gen", moves: "setup_s"},

	{name: "codec.binary.decode_ns_per_reading", unit: "ns", better: "lower", layer: "serve.codec", moves: "readings_per_s"},
	{name: "codec.binary.encode_ns_per_reading", unit: "ns", better: "lower", layer: "serve.codec", moves: "readings_per_s"},
	{name: "codec.binary.bytes_per_reading", unit: "B", better: "lower", layer: "serve.codec", moves: "readings_per_s"},
	{name: "codec.json.decode_ns_per_reading", unit: "ns", better: "lower", layer: "serve.codec", moves: "readings_per_s"},
	{name: "codec.json.encode_ns_per_reading", unit: "ns", better: "lower", layer: "serve.codec", moves: "readings_per_s"},
	{name: "codec.json.bytes_per_reading", unit: "B", better: "lower", layer: "serve.codec", moves: "readings_per_s"},
	{name: "codec.json.allocs_per_reading", unit: "count", better: "lower", layer: "serve.codec", moves: "heap_live_mb"},

	{name: "http.handler_ns_per_reading", unit: "ns", better: "lower", layer: "serve.http", moves: "readings_per_s"},
	{name: "http.socket_ns_per_batch", unit: "ns", better: "lower", layer: "serve.http", moves: "readings_per_s"},
	{name: "http.alloc_bytes_per_reading", unit: "B", better: "lower", layer: "serve.http", moves: "heap_live_mb"},
	{name: "http.rtt_p50_us", unit: "us", better: "lower", layer: "serve.http", moves: "paced_ok_share"},
	{name: "http.rtt_p99_us", unit: "us", better: "lower", layer: "serve.http", moves: "paced_ok_share"},
	{name: "runtime.gc_pause_share", unit: "share", better: "lower", layer: "serve.http", moves: "paced_ok_share"},

	{name: "route.ingest_ns_per_reading", unit: "ns", better: "lower", layer: "serve.route", moves: "readings_per_s"},
	{name: "route.overhead_ns_per_reading", unit: "ns", better: "lower", layer: "serve.route", moves: "readings_per_s"},
	{name: "route.subbatches_per_batch", unit: "count", better: "lower", layer: "serve.route", moves: "readings_per_s"},
	{name: "route.shard_skew", unit: "ratio", better: "lower", layer: "serve.route", moves: "paced_ok_share"},
	{name: "route.rejected_share", unit: "share", better: "lower", layer: "serve.route", moves: "paced_ok_share"},
	{name: "route.scaling_p2_over_p1", unit: "ratio", better: "higher", layer: "serve.route", moves: "readings_per_s"},

	{name: "pipeline.ingest_ns_mean", unit: "ns", better: "lower", layer: "serve.pipeline", moves: "readings_per_s"},
	{name: "pipeline.ingest_ns_p50", unit: "ns", better: "lower", layer: "serve.pipeline", moves: "readings_per_s"},
	{name: "pipeline.ingest_ns_p99", unit: "ns", better: "lower", layer: "serve.pipeline", moves: "paced_ok_share"},
	{name: "pipeline.truth_ns_per_reading", unit: "ns", better: "lower", layer: "serve.pipeline", moves: "readings_per_s"},
	{name: "pipeline.query_outlier_ns", unit: "ns", better: "lower", layer: "serve.pipeline", moves: "query_rtt_p50_us"},
	{name: "pipeline.query_prob_ns", unit: "ns", better: "lower", layer: "serve.pipeline", moves: "query_rtt_p50_us"},
	{name: "pipeline.full_builds", unit: "count", better: "lower", layer: "serve.pipeline", moves: "readings_per_s"},
	{name: "pipeline.patch_builds", unit: "count", better: "lower", layer: "serve.pipeline", moves: "readings_per_s"},
	{name: "pipeline.outliers", unit: "count", better: "lower", layer: "serve.pipeline", moves: "readings_per_s"},

	{name: "detector.kernelchain.ingest_ns", unit: "ns", better: "lower", layer: "detector", moves: "readings_per_s"},
	{name: "detector.qn.ingest_ns", unit: "ns", better: "lower", layer: "detector", moves: "readings_per_s"},
	{name: "detector.coreset.ingest_ns", unit: "ns", better: "lower", layer: "detector", moves: "readings_per_s"},
	{name: "detector.ewma.ingest_ns", unit: "ns", better: "lower", layer: "detector", moves: "readings_per_s"},
	{name: "detector.kernelchain.state_bytes", unit: "B", better: "lower", layer: "detector", moves: "heap_live_mb"},
	{name: "detector.qn.state_bytes", unit: "B", better: "lower", layer: "detector", moves: "heap_live_mb"},
	{name: "detector.coreset.state_bytes", unit: "B", better: "lower", layer: "detector", moves: "heap_live_mb"},
	{name: "detector.ewma.state_bytes", unit: "B", better: "lower", layer: "detector", moves: "heap_live_mb"},
	{name: "detector.kernelchain.snapshot_bytes", unit: "B", better: "lower", layer: "detector", moves: "recovery_ms"},
	{name: "detector.kernelchain.restore_ms", unit: "ms", better: "lower", layer: "detector", moves: "recovery_ms"},

	{name: "distance.dynindex.slide_ns", unit: "ns", better: "lower", layer: "distance", moves: "readings_per_s"},
	{name: "kernel.prob_ns_d1_r500", unit: "ns", better: "lower", layer: "kernel", moves: "readings_per_s"},
	{name: "kernel.prob_ns_d2_r500", unit: "ns", better: "lower", layer: "kernel", moves: "readings_per_s"},
	{name: "sample.chain.push_ns", unit: "ns", better: "lower", layer: "sample", moves: "readings_per_s"},
	{name: "varest.push_ns", unit: "ns", better: "lower", layer: "varest", moves: "readings_per_s"},

	{name: "drift.observe_ns", unit: "ns", better: "lower", layer: "drift", moves: "readings_per_s"},
	{name: "drift.fires", unit: "count", better: "lower", layer: "drift", moves: "readings_per_s"},

	{name: "subscribe.publish_ns_per_reading", unit: "ns", better: "lower", layer: "serve.subscribe", moves: "readings_per_s"},
	{name: "subscribe.drop_share", unit: "share", better: "lower", layer: "serve.subscribe", moves: "readings_per_s"},

	{name: "snapshot.pipeline_bytes", unit: "B", better: "lower", layer: "serve.snapshot", moves: "recovery_ms"},
	{name: "snapshot.encode_ms", unit: "ms", better: "lower", layer: "serve.snapshot", moves: "recovery_ms"},
	{name: "snapshot.restore_ms_1e5", unit: "ms", better: "lower", layer: "serve.snapshot", moves: "recovery_ms"},
	{name: "snapshot.restore_ms_1e6", unit: "ms", better: "lower", layer: "serve.snapshot", moves: "recovery_ms"},
	{name: "snapshot.restore_growth", unit: "ratio", better: "lower", layer: "serve.snapshot", moves: "recovery_ms"},
	{name: "snapshot.checkpoint_stall_max_us", unit: "us", better: "lower", layer: "serve.snapshot", moves: "paced_ok_share"},
	{name: "checkpoint_ms", unit: "ms", better: "lower", layer: "serve.snapshot", moves: "recovery_ms"},
	{name: "restore_ms", unit: "ms", better: "lower", layer: "serve.snapshot", moves: "recovery_ms"},

	{name: "replicate.forward_ns_per_reading", unit: "ns", better: "lower", layer: "serve.replicate", moves: "readings_per_s"},
	{name: "replicate.lag_readings", unit: "count", better: "lower", layer: "serve.replicate", moves: "recovery_ms"},

	{name: "router.hop_ns_per_reading", unit: "ns", better: "lower", layer: "cluster.router", moves: "readings_per_s"},
	{name: "router.forwarded", unit: "count", better: "higher", layer: "cluster.router", moves: "readings_per_s"},
	{name: "router.wrongnode_409s", unit: "count", better: "lower", layer: "cluster.router", moves: "paced_ok_share"},
	{name: "router.retries", unit: "count", better: "lower", layer: "cluster.router", moves: "paced_ok_share"},
	{name: "migrate.total_ms", unit: "ms", better: "lower", layer: "cluster.migrate", moves: "paced_ok_share"},
	{name: "migrate.blob_bytes", unit: "B", better: "lower", layer: "cluster.migrate", moves: "recovery_ms"},
	{name: "migrate_pause_ms", unit: "ms", better: "lower", layer: "cluster.migrate", moves: "paced_ok_share"},
	{name: "failover_gap_ms", unit: "ms", better: "lower", layer: "cluster.migrate", moves: "recovery_ms"},
	{name: "failover.healthtick_ms", unit: "ms", better: "lower", layer: "cluster.migrate", moves: "recovery_ms"},
	{name: "failover.lag_readings", unit: "count", better: "lower", layer: "cluster.migrate", moves: "recovery_ms"},

	{name: "trace.coverage", unit: "ratio", better: "higher", layer: "trace", moves: "readings_per_s"},
	{name: "trace.overhead_share", unit: "share", better: "lower", layer: "trace", moves: "readings_per_s"},
}
