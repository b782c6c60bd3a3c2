package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// BenchmarkPipelineIngest measures the per-reading detection hot path at
// steady state (the allocs/op column guards the pooled-storage contract
// that TestIngestHotPathZeroAlloc pins exactly).
func BenchmarkPipelineIngest(b *testing.B) {
	_, step := hotPipeline(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkPipelineIngestDrift is the drift-overhead twin of
// BenchmarkPipelineIngest: the same steady-state harness with the
// default drift arm (full bank at the default sampling stride plus the
// JS model signal; thresholds parked — see benchDriftArm). The ns/op
// delta against the baseline is the drift tax, to be kept < 2%.
func BenchmarkPipelineIngestDrift(b *testing.B) {
	_, step := hotPipelineDrift(b, 200, benchDriftArm())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkServerIngest measures end-to-end batched ingest through the
// admission layer and shard mailboxes (no HTTP), with concurrent
// closed-loop submitters. One op is a 64-reading batch; readings/s is
// reported as a metric, and p99_us is the worst per-shard service-time
// p99 from the shards' own latency sketches (the benchmark's route.* rows
// are the recorded figures).
func BenchmarkServerIngest(b *testing.B) {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for _, shards := range counts {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := Config{
				Shards:   shards,
				Pipeline: testPipelineConfig(DetectDistance, 1, 500, 7),
				// Deep queues: the benchmark measures service throughput,
				// not admission control.
				QueueDepth: 1024,
			}
			srv, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()

			const batchLen = 64
			sensors := make([]string, 4*shards)
			for i := range sensors {
				sensors[i] = fmt.Sprintf("sensor-%03d", i)
			}
			src := rand.New(rand.NewSource(5))
			pool := make([][]Reading, 64)
			for i := range pool {
				batch := make([]Reading, batchLen)
				for j := range batch {
					batch[j] = Reading{
						Sensor: sensors[(i*batchLen+j)%len(sensors)],
						Value:  []float64{src.Float64()},
					}
				}
				pool[i] = batch
			}

			var rejected atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				k := 0
				for pb.Next() {
					_, rej, err := srv.Ingest(pool[k%len(pool)])
					if err != nil {
						b.Fatal(err)
					}
					rejected.Add(uint64(rej))
					k++
				}
			})
			b.StopTimer()

			sent := uint64(b.N)*batchLen - rejected.Load()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(sent)/secs, "readings/s")
			}
			st, err := srv.Stats()
			if err != nil {
				b.Fatal(err)
			}
			p99 := 0.0
			for _, ss := range st.PerShard {
				if ss.P99Micros > p99 {
					p99 = ss.P99Micros
				}
			}
			b.ReportMetric(p99, "p99_us")
			if frac := float64(rejected.Load()) / float64(uint64(b.N)*batchLen); frac > 0.01 {
				b.Logf("warning: %.1f%% of readings rejected by admission control", 100*frac)
			}
		})
	}
}
