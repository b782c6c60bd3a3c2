package serve

import "odds/internal/detector"

// JSON wire types shared by the server handlers and the oddload client.

// Reading is one sensor reading to ingest.
type Reading struct {
	Sensor string    `json:"sensor"`
	Value  []float64 `json:"value"`
}

// IngestRequest is the POST /ingest body.
type IngestRequest struct {
	Readings []Reading `json:"readings"`
}

// ReadingResult is one reading's outcome, in request order. When a
// shard's bounded queue is full its whole sub-batch is rejected
// atomically (Accepted=false, no verdict); the client must re-send
// rejected readings, in order, before any newer reading for the same
// sensor.
type ReadingResult struct {
	Shard    int    `json:"shard"`
	Accepted bool   `json:"accepted"`
	Seq      uint64 `json:"seq,omitempty"`
	Outlier  bool   `json:"outlier"`
	Exact    bool   `json:"exact"`
	Warmed   bool   `json:"warmed"`
}

// IngestResponse is the POST /ingest reply. RetryAfterMS is set whenever
// at least one sub-batch was rejected; a fully-rejected request is
// answered 429 with a Retry-After header instead.
type IngestResponse struct {
	Results      []ReadingResult `json:"results"`
	Rejected     int             `json:"rejected"`
	RetryAfterMS int64           `json:"retry_after_ms,omitempty"`
}

// QueryResponse answers GET /query/outlier: a read-only check of the
// value against the sensor's shard state, without ingesting it.
type QueryResponse struct {
	Shard   int    `json:"shard"`
	Seq     uint64 `json:"seq"`
	Outlier bool   `json:"outlier"`
	Exact   bool   `json:"exact"`
	Warmed  bool   `json:"warmed"`
}

// ProbResponse answers GET /query/prob.
type ProbResponse struct {
	Shard int     `json:"shard"`
	Prob  float64 `json:"prob"`
}

// ShardStats is one shard's counters in GET /stats.
type ShardStats struct {
	Shard      int     `json:"shard"`
	Arrivals   uint64  `json:"arrivals"`
	Ingested   uint64  `json:"ingested"`
	Rejected   uint64  `json:"rejected"`
	Outliers   uint64  `json:"outliers"`
	QueueDepth int     `json:"queue_depth"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
	// Role ("primary" or "replica") and Sealed describe the shard's
	// cluster state; standalone servers always report unsealed primaries.
	Role   string `json:"role,omitempty"`
	Sealed bool   `json:"sealed,omitempty"`
	// Drift is the shard's concept-drift counter block, present only
	// when the pipeline runs an armed monitor.
	Drift *DriftStats `json:"drift,omitempty"`
	// Backends is the per-detector counter block, one entry per armed
	// backend in canonical order (default backend first).
	Backends []detector.Stats `json:"backends,omitempty"`
	// Replication is the shard's outgoing replica link, present only on
	// cluster nodes.
	Replication *ReplicationStats `json:"replication,omitempty"`
}

// ReplicationStats is the state of a shard's link to its follower. State is
// "none" (no follower attached), "ok", or "broken": the link failed closed
// — a shipping error, a refused batch or a full forward queue — and the
// follower stays frozen at a consistent prefix until the chain is repaired.
// ShippedBatches counts the batches the follower has acknowledged.
type ReplicationStats struct {
	State          string `json:"state"`
	ShippedBatches uint64 `json:"shipped_batches"`
}

// StatsResponse answers GET /stats. It embeds the full pipeline
// configuration, in its one JSON encoding, so a client (internal/twin)
// can construct a bit-identical in-process twin, and carries per-shard
// arrival counts so it can resume a seeded stream against a restarted
// server.
type StatsResponse struct {
	Shards int `json:"shards"`
	PipelineConfig
	PerShard []ShardStats `json:"per_shard"`
	// WireFingerprint is the u64 every ODWP frame must carry; binary
	// clients learn it here before their first batch.
	WireFingerprint uint64 `json:"wire_fingerprint"`
	// Cluster and Epoch describe cluster membership: Shards stays the
	// cluster-global shard space, PerShard lists only hosted shards, and
	// Epoch is the map version this node last acknowledged.
	Cluster bool   `json:"cluster,omitempty"`
	Epoch   uint64 `json:"epoch,omitempty"`
}

// PipelineConfigFor reconstructs the pipeline configuration of one shard
// from a stats reply — the client half of the twin contract. Seeds are
// derived exactly as the server derives them.
func (s *StatsResponse) PipelineConfigFor(shard int) PipelineConfig {
	cfg := s.PipelineConfig
	cfg.Seed = shardSeed(s.Seed, shard)
	return cfg
}

// ShardOf routes a sensor id to a shard: 32-bit FNV-1a over the id,
// modulo the shard count. Exported so clients can predict routing.
func ShardOf(sensor string, shards int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(sensor); i++ {
		h ^= uint32(sensor[i])
		h *= prime32
	}
	return int(h % uint32(shards))
}
