package core

import (
	"testing"

	"odds/internal/stats"
	"odds/internal/stream"
)

// TestForceRefreshReestimatesBandwidths: after ForceRefresh the next
// Model call must rebuild with current sigmas even though the rebuild
// cadence has not elapsed.
func TestForceRefreshReestimatesBandwidths(t *testing.T) {
	cfg := testConfig(1)
	cfg.RebuildEvery = 500
	est := NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), stats.NewRand(9))
	src := stream.NewDrifting(stream.DefaultDrifting(stream.DriftVariance, 1200), 1, 55)
	for i := 0; i < 1200; i++ {
		est.Observe(src.Next())
	}
	if est.Model() == nil {
		t.Fatal("no model after warm-up")
	}
	refreshes := func() uint64 {
		full, patch := est.ModelBuildStats()
		return full + patch
	}
	r0 := refreshes()
	// Inflated-variance regime arrives; cadence says no rebuild yet.
	for i := 0; i < 100; i++ {
		est.Observe(src.Next())
	}
	est.Model()
	if r := refreshes(); r != r0 {
		t.Fatalf("model refreshed without ForceRefresh (%d -> %d); cadence guard broken", r0, r)
	}
	est.ForceRefresh()
	est.Model()
	if r := refreshes(); r == r0 {
		t.Fatal("ForceRefresh did not trigger a refresh")
	}
}
