package core

import (
	"fmt"
	"testing"

	"odds/internal/stats"
	"odds/internal/window"
)

// BenchmarkEstimatorRefresh measures the steady-state Observe+Model cost
// of one detector estimator — the per-arrival estimation path every
// serving shard and simulated sensor pays — with the model patched in
// place. The models_per_10k metric counts kernel refreshes (full or patch)
// per 10k arrivals; full_builds counts full-sample constructions over the
// whole run (a healthy steady state reports 1). These numbers land in
// BENCH_REBUILD.json; the from-scratch reference is the kernel package's
// BenchmarkFromScratchRebuild.
func BenchmarkEstimatorRefresh(b *testing.B) {
	for _, dim := range []int{1, 3} {
		b.Run(fmt.Sprintf("incremental/d=%d", dim), func(b *testing.B) {
			cfg := testConfig(dim)
			e := NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), stats.NewRand(31))
			e.EnableSampleRecycling()
			rng := stats.NewRand(32)
			pool := make([]window.Point, 1024)
			for i := range pool {
				p := make(window.Point, dim)
				for j := range p {
					p[j] = rng.Float64()
				}
				pool[i] = p
			}
			// Warm past the window so the chain is in its steady regime.
			for i := 0; i < 2*cfg.WindowCap; i++ {
				e.Observe(pool[i%len(pool)])
				e.Model()
			}
			startFull, startPatch := e.ModelBuildStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Observe(pool[i%len(pool)])
				e.Model()
			}
			b.StopTimer()
			full, patch := e.ModelBuildStats()
			builds := (full - startFull) + (patch - startPatch)
			b.ReportMetric(float64(builds)/float64(b.N)*10000, "models_per_10k")
			b.ReportMetric(float64(full), "full_builds")
		})
	}
}
