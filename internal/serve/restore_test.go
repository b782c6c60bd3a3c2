package serve_test

// Restart recovery: serve.New builds every hosted shard's pipeline
// concurrently, from its checkpointed blob or fresh. These tests pin that
// a restored server is the checkpointed one, byte for byte and verdict for
// verdict; BenchmarkServerRestore times it (make bench-restore).

import (
	"bytes"
	"fmt"
	"testing"

	"odds/internal/core"
	"odds/internal/detector"
	"odds/internal/distance"
	"odds/internal/mdef"
	"odds/internal/serve"
	"odds/internal/stats"
	"odds/internal/stream"
	"odds/internal/twin"
)

// kernelChainPipeline is kernel-steady's pipeline shape (bench/workloads.go):
// kernelchain under the distance criterion, one dimension, a window of w
// and a sample of r, with the threshold scaled from 45 per 10⁴ readings.
func kernelChainPipeline(w, r int) serve.PipelineConfig {
	ccfg := core.DefaultConfig(1)
	ccfg.WindowCap, ccfg.SampleSize = w, r
	return serve.PipelineConfig{
		Core:     ccfg,
		Kind:     serve.DetectDistance,
		Distance: distance.Params{Radius: 0.01, Threshold: 45 * float64(w) / 10000},
		MDEF:     mdef.Params{R: 0.08, AlphaR: 0.01, KSigma: 3},
		Seed:     1,
		Backends: detector.Params{}.WithDefaults(),
	}
}

// lightFanoutPipeline is light-fanout's shape: the same pipeline with ewma
// as the default backend, q- sensors on qn and c- sensors on coreset.
func lightFanoutPipeline(w, r int) serve.PipelineConfig {
	p := kernelChainPipeline(w, r)
	p.Backend = detector.KindEWMA
	p.Selector = []serve.BackendRule{
		{Prefix: "q-", Backend: detector.KindQn},
		{Prefix: "c-", Backend: detector.KindCoreset},
	}
	return p
}

// fanout generates round-robin readings from per sensors of each prefix
// s-, q- and c-, every sensor its own seeded mixture stream.
type fanout struct {
	names []string
	src   []stream.Source
	k     int
}

func newFanout(tb testing.TB, per int, seed int64) *fanout {
	tb.Helper()
	f := &fanout{}
	for _, prefix := range []string{"s-", "q-", "c-"} {
		for i := 0; i < per; i++ {
			src, err := stream.ByName("mixture", 1, stats.ChildSeed(seed, len(f.names)))
			if err != nil {
				tb.Fatal(err)
			}
			f.names = append(f.names, fmt.Sprintf("%s%03d", prefix, i))
			f.src = append(f.src, src)
		}
	}
	return f
}

func (f *fanout) next() serve.Reading {
	i := f.k % len(f.names)
	f.k++
	return serve.Reading{Sensor: f.names[i], Value: f.src[i].Next()}
}

// ingestChecked serves n readings through srv in batches of 64 and checks
// every verdict with tw; seqs holds each shard's last accepted seq.
func ingestChecked(t *testing.T, srv *serve.Server, tw *twin.Twin, seqs []uint64, f *fanout, n int) {
	t.Helper()
	batch := make([]serve.Reading, 0, 64)
	for sent := 0; sent < n; sent += len(batch) {
		batch = batch[:0]
		for len(batch) < cap(batch) && sent+len(batch) < n {
			batch = append(batch, f.next())
		}
		results, rejected, err := srv.Ingest(batch)
		if err != nil {
			t.Fatal(err)
		}
		if rejected != 0 {
			t.Fatalf("%d of %d readings rejected", rejected, len(batch))
		}
		for i, res := range results {
			seqs[res.Shard]++
			if err := tw.Accept(res.Shard, seqs[res.Shard], batch[i], res); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestNewRestoresEveryShard checkpoints an 8-shard server of light-fanout's
// shape after traffic and restarts it with New: every restored shard's
// pipeline snapshots to its checkpointed blob byte for byte, and the
// verdicts it serves next are the twin's.
func TestNewRestoresEveryShard(t *testing.T) {
	const w = 400
	cfg := serve.Config{Shards: 8, Pipeline: lightFanoutPipeline(w, 40), SnapshotPath: t.TempDir() + "/snap"}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	tw, err := twin.New(&st)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]uint64, cfg.Shards)
	f := newFanout(t, 32, 7)
	ingestChecked(t, srv, tw, seqs, f, 2*w*cfg.Shards)
	for sh, n := range seqs {
		if n == 0 {
			t.Fatalf("shard %d saw no traffic", sh)
		}
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want, err := srv.CheckpointBlobs()
	if err != nil {
		t.Fatal(err)
	}
	srv.Abort()

	restored, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = restored.Close() })
	got, err := restored.ShardSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	for sh := range want {
		if !bytes.Equal(got[sh], want[sh]) {
			t.Errorf("shard %d: restored pipeline snapshots to %d bytes, not its %d-byte checkpointed blob", sh, len(got[sh]), len(want[sh]))
		}
	}
	ingestChecked(t, restored, tw, seqs, f, w*cfg.Shards)
}

// BenchmarkServerRestore times New restoring a server from its checkpoint
// file in the shapes of the two workloads whose recovery restarts a node:
// light-fanout's 8 shards and kernel-steady's 2 kernelchain shards, both
// at |W| = 10⁴ and |R| = 500, every shard 2·|W| arrivals in.
func BenchmarkServerRestore(b *testing.B) {
	const w, r = 10000, 500
	for _, c := range []struct {
		name string
		cfg  serve.Config
	}{
		{"light-fanout", serve.Config{Shards: 8, Pipeline: lightFanoutPipeline(w, r)}},
		{"kernel-steady", serve.Config{Shards: 2, Pipeline: kernelChainPipeline(w, r)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := c.cfg
			cfg.SnapshotPath = b.TempDir() + "/snap"
			fillCheckpoint(b, cfg, 2*w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv, err := serve.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				srv.Abort()
				b.StartTimer()
			}
		})
	}
}

// fillCheckpoint serves a fresh server until each of its shards has
// perShard arrivals, then checkpoints it.
func fillCheckpoint(b *testing.B, cfg serve.Config, perShard int) {
	b.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Abort()
	f := newFanout(b, 128, 1)
	counts := make([]int, cfg.Shards)
	batch := make([]serve.Reading, 0, 256)
	for full := 0; full < cfg.Shards; {
		batch = batch[:0]
		for len(batch) < cap(batch) && full < cfg.Shards {
			rd := f.next()
			sh := serve.ShardOf(rd.Sensor, cfg.Shards)
			if counts[sh] == perShard {
				continue
			}
			if counts[sh]++; counts[sh] == perShard {
				full++
			}
			batch = append(batch, rd)
		}
		if _, rejected, err := srv.Ingest(batch); err != nil || rejected != 0 {
			b.Fatalf("filling the checkpoint: %d rejected, err %v", rejected, err)
		}
	}
	if err := srv.Checkpoint(); err != nil {
		b.Fatal(err)
	}
}
