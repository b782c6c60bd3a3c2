package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"odds/internal/drift"
	"odds/internal/stream"
)

// metricsBody scrapes /metrics through the real handler.
func metricsBody(t *testing.T, srv *Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// driftPipelineConfig returns a drift-armed variant of the standard test
// pipeline configuration.
func driftPipelineConfig(kind DetectorKind, wcap int, seed int64, d DriftConfig) PipelineConfig {
	cfg := testPipelineConfig(kind, 1, wcap, seed)
	cfg.Drift = d
	return cfg
}

// bankOnly is a detector-bank-only arm (no model JS signal) with a tight
// sampling stride so short test streams still produce plenty of
// observations.
func bankOnly() DriftConfig {
	return DriftConfig{
		Enabled:     true,
		SampleEvery: 4,
		Detector:    drift.Default(),
	}
}

// TestServeDriftStationaryBitIdentical is the zero-drift regression gate
// at the pipeline level: on a stationary stream an armed monitor must
// leave the verdict stream bit-identical to a drift-free twin, and must
// not fire at all. Runs both detector kinds against the full default arm
// (bank + JS model signal).
func TestServeDriftStationaryBitIdentical(t *testing.T) {
	for _, kind := range []DetectorKind{DetectDistance, DetectMDEF} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			const wcap, n = 256, 6000
			arm := DefaultDriftConfig()
			arm.SampleEvery = 4
			arm.JSEvery = 64
			plain, err := NewPipeline(testPipelineConfig(kind, 1, wcap, 7))
			if err != nil {
				t.Fatal(err)
			}
			armed, err := NewPipeline(driftPipelineConfig(kind, wcap, 7, arm))
			if err != nil {
				t.Fatal(err)
			}
			src := stream.NewDrifting(stream.DefaultDrifting(stream.DriftNone, 0), 1, 99)
			for i := 0; i < n; i++ {
				v := src.Next()
				a, b := plain.Ingest(v), armed.Ingest(v)
				if a != b {
					t.Fatalf("verdict %d diverged with drift armed: %+v vs %+v", i, a, b)
				}
			}
			st := armed.DriftStats()
			if st.Detector.Detections != 0 || st.JSTrips != 0 {
				t.Fatalf("armed monitor fired on a stationary stream: %+v", st)
			}
			if st.Detector.Observed == 0 {
				t.Fatal("monitor observed nothing; gate is vacuous")
			}
			if st.JSChecks == 0 {
				t.Fatal("model signal never evaluated; gate is vacuous")
			}
		})
	}
}

// TestServeDriftAdaptsOnShift: an abrupt mean shift must be detected and
// must trigger the adaptation action, a forced bandwidth re-estimation.
func TestServeDriftAdaptsOnShift(t *testing.T) {
	const wcap, shiftAt, n = 512, 3000, 6000
	p, err := NewPipeline(driftPipelineConfig(DetectDistance, wcap, 3, bankOnly()))
	if err != nil {
		t.Fatal(err)
	}
	src := stream.NewDrifting(stream.DefaultDrifting(stream.DriftAbrupt, shiftAt), 1, 12)
	for i := 0; i < n; i++ {
		p.Ingest(src.Next())
	}
	st := p.DriftStats()
	if st.Detector.Detections == 0 {
		t.Fatal("abrupt shift never detected")
	}
	if st.Refreshes == 0 {
		t.Fatal("no forced bandwidth re-estimation")
	}
	if st.LastFireSeq == 0 || st.LastFireSeq <= uint64(shiftAt)/2 {
		t.Fatalf("implausible LastFireSeq %d", st.LastFireSeq)
	}
	if st.Detector.LastFire == 0 {
		t.Fatal("bank LastFire not recorded")
	}
}

// TestServeDriftJSSignal isolates the model-level signal: the bank's
// thresholds are parked out of reach, so only the JS divergence between
// the live model and the frozen reference can fire — and on a mean shift
// it must.
func TestServeDriftJSSignal(t *testing.T) {
	const wcap, shiftAt, n = 256, 2500, 6000
	arm := DriftConfig{
		Enabled:     true,
		SampleEvery: 1,
		Detector: drift.Config{
			Window:     64,
			CheckEvery: 16,
			KSD:        2, // KS stat is <= 1: unreachable
		},
		JSEvery:      32,
		JSThreshold:  0.02,
		JSGridPoints: 16,
	}
	p, err := NewPipeline(driftPipelineConfig(DetectDistance, wcap, 5, arm))
	if err != nil {
		t.Fatal(err)
	}
	src := stream.NewDrifting(stream.DefaultDrifting(stream.DriftAbrupt, shiftAt), 1, 21)
	for i := 0; i < n; i++ {
		p.Ingest(src.Next())
	}
	st := p.DriftStats()
	if st.Detector.Detections != 0 {
		t.Fatalf("bank fired %d times with parked thresholds", st.Detector.Detections)
	}
	if st.JSChecks == 0 {
		t.Fatal("JS signal never evaluated")
	}
	if st.JSTrips == 0 {
		t.Fatal("JS signal never tripped on a mean shift")
	}
	if st.Refreshes == 0 {
		t.Fatal("JS trip did not force a refresh")
	}
	if st.LastJS < 0 {
		t.Fatalf("negative divergence %v", st.LastJS)
	}
}

// TestServeDriftSnapshotResume: a drift-armed pipeline snapshotted
// mid-stream must resume with bit-identical verdicts AND bit-identical
// drift behavior — same fires, same counters, same adaptations — as the
// uninterrupted original.
func TestServeDriftSnapshotResume(t *testing.T) {
	const wcap, shiftAt, cut, n = 256, 2000, 2600, 5000
	arm := DefaultDriftConfig()
	arm.SampleEvery = 2
	arm.JSEvery = 64
	arm.JSThreshold = 0.02
	cfg := driftPipelineConfig(DetectMDEF, wcap, 17, arm)
	orig, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := stream.NewDrifting(stream.DefaultDrifting(stream.DriftAbrupt, shiftAt), 1, 33)
	vals := make([][]float64, n)
	for i := range vals {
		vals[i] = src.Next()
	}
	for i := 0; i < cut; i++ {
		orig.Ingest(vals[i])
	}
	blob, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestorePipeline(cfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := orig.DriftStats(), restored.DriftStats(); a != b {
		t.Fatalf("restored drift stats differ:\n  orig     %+v\n  restored %+v", a, b)
	}
	for i := cut; i < n; i++ {
		a, b := orig.Ingest(vals[i]), restored.Ingest(vals[i])
		if a != b {
			t.Fatalf("verdict %d diverged after restore: %+v vs %+v", i, a, b)
		}
	}
	a, b := orig.DriftStats(), restored.DriftStats()
	if a != b {
		t.Fatalf("drift stats diverged after resume:\n  orig     %+v\n  restored %+v", a, b)
	}
	if a.Detector.Detections == 0 && a.JSTrips == 0 {
		t.Fatal("no drift activity across the cut; resume check is vacuous")
	}
}

// TestServeDriftFingerprint pins the snapshot-compatibility rules: an
// armed and an unarmed config must never share a fingerprint, two armed
// configs with different thresholds must differ, and a defaulted arm
// must fingerprint identically to its explicit spelling.
func TestServeDriftFingerprint(t *testing.T) {
	base := testPipelineConfig(DetectDistance, 1, 128, 1)
	armed := base
	armed.Drift = DefaultDriftConfig()
	if string(fingerprint(1, base)) == string(fingerprint(1, armed)) {
		t.Fatal("armed and unarmed configs share a fingerprint")
	}
	hot := armed
	hot.Drift.Detector.KSD = 0.2
	if string(fingerprint(1, armed)) == string(fingerprint(1, hot)) {
		t.Fatal("different thresholds share a fingerprint")
	}
	sparse := base
	sparse.Drift = DriftConfig{Enabled: true, SampleEvery: 32, JSEvery: 256, JSThreshold: 0.15}
	full := base
	full.Drift = DefaultDriftConfig()
	if string(fingerprint(1, sparse)) != string(fingerprint(1, full)) {
		t.Fatal("defaulted arm fingerprints differently from its explicit spelling")
	}
}

// TestServeDriftValidate covers the armed-config rejection paths.
func TestServeDriftValidate(t *testing.T) {
	bad := []DriftConfig{
		{Enabled: true, SampleEvery: -1},
		{Enabled: true, Detector: drift.Config{Window: 4, CheckEvery: 1, KSD: 0.5}},
		{Enabled: true, JSEvery: 8},                                      // JSThreshold missing
		{Enabled: true, JSEvery: 8, JSThreshold: 0.1, JSGridPoints: 100}, // grid too fine
	}
	for i, d := range bad {
		cfg := testPipelineConfig(DetectDistance, 1, 128, 1)
		cfg.Drift = d
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	cfg := testPipelineConfig(DetectDistance, 1, 128, 1)
	cfg.Drift = DriftConfig{Enabled: true}
	if err := cfg.Validate(); err != nil {
		t.Errorf("minimal armed config rejected: %v", err)
	}
}

// TestServeDriftStatsSurface: a drift-armed server reports the counter
// block in /stats (per shard) and the drift gauges in /metrics; an
// unarmed server omits both.
func TestServeDriftStatsSurface(t *testing.T) {
	arm := bankOnly()
	srv, err := New(Config{
		Shards:   2,
		Pipeline: driftPipelineConfig(DetectDistance, 128, 9, arm),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	src := stream.NewDrifting(stream.DefaultDrifting(stream.DriftAbrupt, 400), 1, 44)
	batch := make([]Reading, 0, 64)
	sensors := []string{"a", "b", "c", "d"}
	for i := 0; i < 2000; i += len(batch) {
		batch = batch[:0]
		for j := 0; j < 64; j++ {
			batch = append(batch, Reading{Sensor: sensors[(i+j)%len(sensors)], Value: src.Next()})
		}
		if _, _, err := srv.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drift.Enabled {
		t.Fatal("StatsResponse does not carry the armed drift config")
	}
	var det uint64
	for _, sh := range st.PerShard {
		if sh.Drift == nil {
			t.Fatalf("shard %d missing drift stats", sh.Shard)
		}
		det += sh.Drift.Detector.Detections
	}
	if det == 0 {
		t.Fatal("no shard detected the abrupt shift")
	}
	// Twin contract: the reported config must reconstruct a drift-armed
	// pipeline.
	twin := st.PipelineConfigFor(0)
	if !twin.Drift.Enabled {
		t.Fatal("PipelineConfigFor drops the drift arm")
	}
	body := metricsBody(t, srv)
	if !strings.Contains(body, "odds_serve_drift_detections_total") {
		t.Fatalf("/metrics missing drift totals:\n%s", body)
	}
	if !strings.Contains(body, `odds_serve_shard_drift_detections{shard="0"}`) {
		t.Fatalf("/metrics missing per-shard drift gauges:\n%s", body)
	}

	plain, err := New(Config{Shards: 1, Pipeline: testPipelineConfig(DetectDistance, 1, 128, 9)})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if body := metricsBody(t, plain); strings.Contains(body, "drift") {
		t.Fatalf("unarmed /metrics leaks drift lines:\n%s", body)
	}
}
