package serve

// LoadConfig is the server configuration integration_test.go's load runs
// (package serve_test) go against: a small window, so the estimate path
// warms up and models rebuild well within a few thousand readings.
func LoadConfig(kind DetectorKind, shards int, snapshotPath string) Config {
	return Config{Shards: shards, Pipeline: testPipelineConfig(kind, 1, 150, 42), QueueDepth: 32, SnapshotPath: snapshotPath}
}
