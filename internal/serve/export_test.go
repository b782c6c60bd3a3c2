package serve

import "os"

// LoadConfig is the server configuration integration_test.go's load runs
// (package serve_test) go against: a small window, so the estimate path
// warms up and models rebuild well within a few thousand readings.
func LoadConfig(kind DetectorKind, shards int, snapshotPath string) Config {
	return Config{Shards: shards, Pipeline: testPipelineConfig(kind, 1, 150, 42), QueueDepth: 32, SnapshotPath: snapshotPath}
}

// ShardSnapshots cuts every hosted shard's Pipeline.Snapshot through its
// mailbox: the blobs Checkpoint frames, indexed by shard id.
func (s *Server) ShardSnapshots() ([][]byte, error) {
	blobs := make([][]byte, len(s.shards))
	for i, sh := range s.shards {
		if sh == nil {
			continue
		}
		resp, err := sh.call(shardReq{op: opSnapshot})
		if err != nil {
			return nil, err
		}
		blobs[i] = resp.snap
	}
	return blobs, nil
}

// CheckpointBlobs reads the server's snapshot file and returns the
// per-shard blobs framed in it.
func (s *Server) CheckpointBlobs() ([][]byte, error) {
	data, err := os.ReadFile(s.cfg.SnapshotPath)
	if err != nil {
		return nil, err
	}
	return decodeFile(data, s.cfg.Shards, s.cfg.Pipeline)
}
