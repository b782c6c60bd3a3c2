package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// BenchmarkCodecRoundTrip isolates the wire codecs from HTTP: one op is
// encode batch → decode batch → encode response → decode response for a
// 64-reading batch, on reused buffers. The B/op column pins the
// steady-state zero-allocation contract of the binary codec; the JSON
// variant is the A/B.
func BenchmarkCodecRoundTrip(b *testing.B) {
	const batchLen = 64
	const fp = uint64(0x0dd5)
	src := rand.New(rand.NewSource(5))
	readings := make([]Reading, batchLen)
	results := make([]ReadingResult, batchLen)
	for i := range readings {
		readings[i] = Reading{Sensor: fmt.Sprintf("sensor-%03d", i%16), Value: []float64{src.Float64()}}
		results[i] = ReadingResult{Accepted: true, Seq: uint64(i), Outlier: i%7 == 0}
	}

	b.Run("binary", func(b *testing.B) {
		var names Interner
		var frame, out []byte
		var rs []Reading
		var rr []ReadingResult
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frame = AppendBatch(frame[:0], readings, 1, fp)
			var err error
			rs, err = DecodeBatchInto(frame, rs, 1, 8192, fp, &names)
			if err != nil {
				b.Fatal(err)
			}
			out = AppendResults(out[:0], results, 0, 0)
			rr, _, _, err = DecodeResultsInto(out, rr[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
		if len(rs) != batchLen || len(rr) != batchLen {
			b.Fatal("round trip lost readings")
		}
	})
	b.Run("json", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(IngestRequest{Readings: readings}); err != nil {
				b.Fatal(err)
			}
			var req IngestRequest
			if err := json.Unmarshal(buf.Bytes(), &req); err != nil {
				b.Fatal(err)
			}
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(IngestResponse{Results: results}); err != nil {
				b.Fatal(err)
			}
			var resp IngestResponse
			if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireHTTP is the end-to-end A/B the acceptance criterion reads:
// full HTTP POST /ingest rounds over persistent connections, JSON vs ODWP
// binary, at shards {1, 4}. One op is a 64-reading batch; readings/s is
// the reported metric (the benchmark's codec.* rows are the recorded
// figures).
func BenchmarkWireHTTP(b *testing.B) {
	const batchLen = 64
	for _, enc := range []string{"json", "binary"} {
		for _, shards := range []int{1, 4} {
			enc, shards := enc, shards
			b.Run(fmt.Sprintf("%s/shards=%d", enc, shards), func(b *testing.B) {
				cfg := Config{
					Shards:   shards,
					Pipeline: testPipelineConfig(DetectDistance, 1, 500, 7),
					// Deep queues: measure service throughput, not admission.
					QueueDepth: 1024,
				}
				srv, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()

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
					// Per-goroutine client state, persistent connections.
					client := &http.Client{Transport: &http.Transport{}}
					defer client.CloseIdleConnections()
					node := Client{HTTP: client, Base: ts.URL}
					var frame []byte
					var binResp IngestResponse
					k := 0
					for pb.Next() {
						batch := pool[k%len(pool)]
						k++
						resp, err := &binResp, error(nil)
						if enc == "binary" {
							frame = AppendBatch(frame[:0], batch, 1, srv.wireFP)
							err = node.IngestFrame(frame, 0, resp)
						} else {
							resp, err = node.IngestJSON(IngestRequest{Readings: batch})
						}
						if err != nil {
							b.Fatal(err)
						}
						rejected.Add(uint64(resp.Rejected))
					}
				})
				b.StopTimer()

				sent := uint64(b.N)*batchLen - rejected.Load()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(sent)/secs, "readings/s")
				}
				if frac := float64(rejected.Load()) / float64(uint64(b.N)*batchLen); frac > 0.01 {
					b.Logf("warning: %.1f%% of readings rejected by admission control", 100*frac)
				}
			})
		}
	}
}

// BenchmarkSubscribeFanout measures the publish cost a busy stream adds
// to the shard hot path: ingest with 0, 1, and 4 live subscribers whose
// streams are drained by background readers.
func BenchmarkSubscribeFanout(b *testing.B) {
	for _, subs := range []int{0, 1, 4} {
		subs := subs
		b.Run(fmt.Sprintf("subscribers=%d", subs), func(b *testing.B) {
			cfg := Config{
				Shards:     1,
				Pipeline:   testPipelineConfig(DetectDistance, 1, 500, 7),
				QueueDepth: 1024,
			}
			srv, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			for i := 0; i < subs; i++ {
				resp, err := http.Get(ts.URL + "/subscribe?format=binary")
				if err != nil {
					b.Fatal(err)
				}
				defer resp.Body.Close()
				go func(r io.Reader) { _, _ = io.Copy(io.Discard, r) }(resp.Body)
			}

			const batchLen = 64
			src := rand.New(rand.NewSource(5))
			batch := make([]Reading, batchLen)
			for j := range batch {
				batch[j] = Reading{Sensor: "sensor-000", Value: []float64{src.Float64()}}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := srv.Ingest(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(uint64(b.N)*batchLen)/secs, "readings/s")
			}
		})
	}
}
