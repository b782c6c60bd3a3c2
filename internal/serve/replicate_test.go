package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"odds/internal/core"
	"odds/internal/detector"
	"odds/internal/distance"
	"odds/internal/mdef"
	"odds/internal/stream"
)

// FuzzReplFrame: the ODRP decoder never panics on arbitrary bytes, and a
// frame that decodes re-encodes byte-identical (canonical encoding — no
// version-1 layout, no bitmap of the wrong length, no set pad bit gets
// through). Every input is also tried with its trailing checksum resealed,
// so mutations of the header and the verdict bitmap reach the checks
// behind the CRC.
func FuzzReplFrame(f *testing.F) {
	nine := make([]Reading, 9)
	for i := range nine {
		nine[i] = Reading{Sensor: fmt.Sprintf("s-%d", i), Value: []float64{float64(i) / 9, 0.5}}
	}
	ninth := make([]Verdict, len(nine))
	ninth[8].Outlier = true
	f.Add(appendReplFrame(nil, 1, 42, fixtureReadings(), fixtureVerdicts(), 2, fixtureWireFP))
	f.Add(appendReplFrame(nil, 3, 7, nine, ninth, 2, fixtureWireFP))
	f.Add(appendReplFrame(nil, 0, 1, nil, nil, 2, fixtureWireFP))
	f.Add([]byte{})
	f.Add([]byte("ODRP garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			sealed := bytes.Clone(data)
			binary.LittleEndian.PutUint32(sealed[len(sealed)-4:], crc32.ChecksumIEEE(sealed[:len(sealed)-4]))
			inputs = append(inputs, sealed)
		}
		for _, in := range inputs {
			re, err := reencodeReplFrame(in)
			if err == nil && !bytes.Equal(re, in) {
				t.Fatalf("non-canonical frame: decode succeeded but re-encode differs\n in: %x\nout: %x", in, re)
			}
		}
	})
}

// BenchmarkReplicateApply is a cluster-ops follower's work per frame: the
// kernelchain pipeline at |W| = 10⁴, |R| = 500, d = 1 behind a replica
// shard, fed 256-reading ODRP frames (16 sensors, mixture streams) at
// steady state — decode, mailbox hop and Pipeline.Apply, with the verdict
// bits a primary pipeline computed for the same readings. Frames are
// encoded before the timer starts; ns/reading is the follower's cost.
func BenchmarkReplicateApply(b *testing.B) {
	const w, r, batch = 10000, 500, 256
	ccfg := core.DefaultConfig(1)
	ccfg.WindowCap, ccfg.SampleSize = w, r
	pcfg := PipelineConfig{
		Core:     ccfg,
		Kind:     DetectDistance,
		Distance: distance.Params{Radius: 0.01, Threshold: 45},
		MDEF:     mdef.Params{R: 0.08, AlphaR: 0.01, KSigma: 3},
		Seed:     1,
		Backends: detector.Params{}.WithDefaults(),
	}
	srv, err := New(Config{Shards: 1, Pipeline: pcfg, Cluster: true})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if err := srv.InstallShard(0, true, nil); err != nil {
		b.Fatal(err)
	}
	pcfg.Seed = shardSeed(pcfg.Seed, 0)
	primary, err := NewPipeline(pcfg)
	if err != nil {
		b.Fatal(err)
	}

	var names []string
	var srcs []stream.Source
	for i := 0; i < 16; i++ {
		src, err := stream.ByName("mixture", 1, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		names, srcs = append(names, fmt.Sprintf("sensor-%02d", i)), append(srcs, src)
	}
	readings := make([]Reading, batch)
	verdicts := make([]Verdict, batch)
	// frame ingests the next batch on the primary and returns its frame.
	frame := func() []byte {
		from := primary.Seq() + 1
		for i := range readings {
			k := int(primary.Seq()) % len(names)
			readings[i] = Reading{Sensor: names[k], Value: srcs[k].Next()}
			verdicts[i] = primary.IngestSensor(readings[i].Sensor, readings[i].Value)
		}
		return appendReplFrame(nil, 0, from, readings, verdicts, 1, srv.wireFP)
	}
	sc := newIngestScratch(1)
	apply := func(body []byte) {
		sc.body = body
		if status, err := srv.applyReplFrame(sc); err != nil {
			b.Fatalf("status %d: %v", status, err)
		}
	}
	for i := 0; i < 3*w/batch; i++ {
		apply(frame())
	}
	frames := make([][]byte, b.N)
	for i := range frames {
		frames[i] = frame()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for _, f := range frames {
		apply(f)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/reading")

	want, err := primary.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	got, err := srv.shards[0].call(shardReq{op: opSnapshot})
	if err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(got.snap, want) {
		b.Fatalf("follower diverged from the primary after %d readings", primary.Seq())
	}
}
