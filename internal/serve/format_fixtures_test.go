package serve

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"odds/internal/core"
	"odds/internal/detector"
	"odds/internal/distance"
	"odds/internal/drift"
	"odds/internal/kernel"
	"odds/internal/mdef"
	"odds/internal/quantile"
	"odds/internal/sample"
	"odds/internal/varest"
	"odds/internal/window"
)

// Cross-format fixtures. Every binary state and control format in the
// tree has one committed fixture under testdata/formats, built from a
// fixed seed and arrival count by the format's own encoder. The table
// below pins three properties per format:
//
//   - encode == fixture bytes (the encoder has not moved a byte);
//   - decode → re-encode == fixture bytes (the decoder loses nothing);
//   - every proper prefix and every single-bit flip of the fixture either
//     fails to decode or decodes to a value whose encoding is a fixed
//     point of decode → re-encode — never a panic, never more than
//     hostileAllocSlack bytes allocated beyond what decoding the pristine
//     fixture allocates;
//   - the format's refuse rows — corruptions that would re-encode to a
//     fixed point and so pass the sweep, but must not be admitted — fail.
//
// The per-format fuzz targets and malformed-frame tables go deeper on one
// format each; this is the row across all of them.
//
// Regenerate (only when a format is meant to change) with
//
//	go test ./internal/serve -run TestFormatFixtures -update-fixtures
var updateFixtures = flag.Bool("update-fixtures", false, "rewrite testdata/formats/*.bin from the current encoders")

const hostileAllocSlack = 1 << 20

// formatCase is one row: build encodes the fixture's value from scratch;
// reencode decodes data and encodes the decoded value again.
type formatCase struct {
	name     string
	build    func() ([]byte, error)
	reencode func(data []byte) ([]byte, error)
	refuse   map[string]func(fixture []byte) // edits a copy of the fixture in place
}

// putF64 overwrites the little-endian float64 at off.
func putF64(b []byte, off int, v float64) {
	binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
}

// fixtureStream is the deterministic reading source every fixture draws
// from: values in [0.2, 0.8), dim coordinates per reading.
func fixtureStream(seed int64, n, dim int) []window.Point {
	r := rand.New(rand.NewSource(seed))
	pts := make([]window.Point, n)
	for i := range pts {
		p := make(window.Point, dim)
		for d := range p {
			p[d] = 0.2 + 0.6*r.Float64()
		}
		pts[i] = p
	}
	return pts
}

func fixtureCoreConfig(dim int) core.Config {
	c := core.DefaultConfig(dim)
	c.WindowCap = 16
	c.SampleSize = 4
	c.RebuildEvery = 3
	return c
}

// fixtureEstimator is the kernelchain-style estimator (recycling +
// incremental model) after 54 arrivals: the last model refresh is four
// arrivals back, so the pending-slot queue is non-empty.
func fixtureEstimator() *core.Estimator {
	cfg := fixtureCoreConfig(2)
	est := core.NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), rand.New(rand.NewSource(11)))
	est.EnableSampleRecycling()
	est.EnableIncrementalModel()
	for i, p := range fixtureStream(12, 54, 2) {
		est.Observe(p)
		if i%5 == 4 {
			est.Model()
		}
	}
	return est
}

func fixtureDetectorConfig(kind detector.Kind) detector.Config {
	return detector.Config{
		Kind:      kind,
		Dim:       2,
		Seed:      21,
		Criterion: detector.CriterionDistance,
		Core:      fixtureCoreConfig(2),
		Distance:  distance.Params{Radius: 0.1, Threshold: 2},
		MDEF:      mdef.Params{R: 0.2, AlphaR: 0.05, KSigma: 1.5},
		Qn:        detector.QnConfig{Eps: 0.1, Lag: 3, K: 3, MinN: 8},
		Coreset:   detector.CoresetConfig{Size: 6, RebuildEvery: 4, WindowCount: 16, MinN: 8},
		EWMA:      detector.EWMAConfig{Lambda: 0.2, K: 3, MinN: 8},
	}
}

func fixtureDriftBank() drift.Config {
	return drift.Config{Window: 8, CheckEvery: 4, Cooldown: 8, KSD: 0.5, PHDelta: 0.01, PHLambda: 4, MKZ: 3}
}

// fixturePipelineConfig arms everything a pipeline snapshot can carry:
// the kernelchain default, a second backend behind a selector rule, and
// the drift monitor with its JS reference model.
func fixturePipelineConfig() PipelineConfig {
	return PipelineConfig{
		Core:     fixtureCoreConfig(1),
		Kind:     DetectDistance,
		Distance: distance.Params{Radius: 0.1, Threshold: 2},
		MDEF:     mdef.Params{R: 0.2, AlphaR: 0.05, KSigma: 1.5},
		Seed:     31,
		Drift: DriftConfig{
			Enabled:      true,
			SampleEvery:  2,
			Detector:     fixtureDriftBank(),
			JSEvery:      4,
			JSThreshold:  0.15,
			JSGridPoints: 4,
		},
		Backends: detector.Params{EWMA: detector.EWMAConfig{Lambda: 0.2, K: 3, MinN: 8}},
		Selector: []BackendRule{{Prefix: "e-", Backend: detector.KindEWMA}},
	}
}

func fixturePipelineBlob(cfg PipelineConfig, seed int64, n int) ([]byte, error) {
	p, err := NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	for i, pt := range fixtureStream(seed, n, cfg.Core.Dim) {
		sensor := "k-0"
		if i%3 == 0 {
			sensor = "e-0"
		}
		p.IngestSensor(sensor, pt)
	}
	return p.Snapshot()
}

// fixtureLightConfig is the smallest pipeline (ewma default, 1-D): its
// snapshots are the payload inside the ODSV and ODSH fixtures, whose
// subject is the framing, not the blob.
func fixtureLightConfig() PipelineConfig {
	cfg := fixturePipelineConfig()
	cfg.Drift = DriftConfig{}
	cfg.Selector = nil
	cfg.Backend = detector.KindEWMA
	return cfg
}

func fixtureReadings() []Reading {
	pts := fixtureStream(41, 5, 2)
	rs := make([]Reading, len(pts))
	for i, p := range pts {
		rs[i] = Reading{Sensor: fmt.Sprintf("s-%d", i%3), Value: p}
	}
	return rs
}

const fixtureWireFP = uint64(0x0123456789abcdef)

func marshalTwice(m interface{ MarshalBinary() ([]byte, error) }, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return m.MarshalBinary()
}

func detectorCase(kind detector.Kind) formatCase {
	cfg := fixtureDetectorConfig(kind)
	var restored detector.Detector
	return formatCase{
		name: "ODDB-" + string(kind),
		build: func() ([]byte, error) {
			d, err := detector.New(cfg)
			if err != nil {
				return nil, err
			}
			for _, p := range fixtureStream(22, 60, cfg.Dim) {
				d.Ingest(p)
			}
			return d.Snapshot()
		},
		// One detector serves every decode: Restore replaces the whole state
		// on success and leaves it untouched on failure, and constructing a
		// qn backend (four pre-grown sketches) per mutation would dominate
		// the sweep.
		reencode: func(data []byte) ([]byte, error) {
			if restored == nil {
				var err error
				if restored, err = detector.New(cfg); err != nil {
					return nil, err
				}
			}
			if err := restored.Restore(data); err != nil {
				return nil, err
			}
			return restored.Snapshot()
		},
	}
}

func formatCases() []formatCase {
	cases := []formatCase{
		{
			name: "ODSB",
			build: func() ([]byte, error) {
				c := sample.NewChain(4, 16, 2, rand.New(rand.NewSource(1)))
				for _, p := range fixtureStream(2, 40, 2) {
					c.Push(p)
				}
				return c.MarshalBinary()
			},
			reencode: func(data []byte) ([]byte, error) {
				return marshalTwice(sample.UnmarshalChain(data, rand.New(rand.NewSource(1))))
			},
		},
		{
			name: "ODVE",
			build: func() ([]byte, error) {
				e := varest.New(32, 0.2)
				for _, p := range fixtureStream(3, 100, 1) {
					e.Push(p[0])
				}
				return e.MarshalBinary()
			},
			reencode: func(data []byte) ([]byte, error) {
				return marshalTwice(varest.UnmarshalEstimator(data))
			},
			// Bucket 0 sits at offset 32: first, last, mean, v. Moments like
			// these restore cleanly and then poison every later bandwidth.
			refuse: map[string]func([]byte){
				"first == 0": func(b []byte) { binary.LittleEndian.PutUint64(b[32:], 0) },
				"NaN mean":   func(b []byte) { putF64(b, 48, math.NaN()) },
				"+Inf mean":  func(b []byte) { putF64(b, 48, math.Inf(1)) },
				"NaN v":      func(b []byte) { putF64(b, 56, math.NaN()) },
				"negative v": func(b []byte) { putF64(b, 56, -1e-300) },
				"+Inf v":     func(b []byte) { putF64(b, 56, math.Inf(1)) },
			},
		},
		{
			name:  "ODES",
			build: func() ([]byte, error) { return fixtureEstimator().MarshalBinary() },
			reencode: func(data []byte) ([]byte, error) {
				return marshalTwice(core.UnmarshalEstimator(data, rand.New(rand.NewSource(11))))
			},
		},
		{
			name: "ODDS",
			build: func() ([]byte, error) {
				m, err := kernel.New(fixtureStream(4, 6, 2), []float64{0.05, 0.08}, 16)
				if err != nil {
					return nil, err
				}
				return m.MarshalBinary()
			},
			reencode: func(data []byte) ([]byte, error) {
				return marshalTwice(kernel.UnmarshalEstimator(data, 0))
			},
		},
		{
			name: "ODKM",
			build: func() ([]byte, error) {
				// One maintenance cycle that replaces one slot and then empties
				// another (an insert would consume the tombstone), so the layout carries a tombstone.
				pts := fixtureStream(7, 5, 2)
				m, err := kernel.NewMaintained(pts[:4], []int{0, 1, 2, 3}, 8, []float64{0.05, 0.08}, 16)
				if err != nil {
					return nil, err
				}
				m.BeginMaintain()
				m.SetSlot(1, pts[4])
				m.SetSlot(3, nil)
				if err := m.FinishMaintain([]float64{0.05, 0.08}, 15); err != nil {
					return nil, err
				}
				return m.MarshalBinary()
			},
			reencode: func(data []byte) ([]byte, error) {
				return marshalTwice(kernel.UnmarshalEstimator(data, 8))
			},
		},
		{
			name: "ODGK",
			build: func() ([]byte, error) {
				s := quantile.New(0.1)
				for _, p := range fixtureStream(5, 50, 1) {
					s.Insert(p[0])
				}
				return s.MarshalBinary()
			},
			reencode: func(data []byte) ([]byte, error) {
				return marshalTwice(quantile.UnmarshalGK(data))
			},
		},
		{
			name: "ODDM",
			build: func() ([]byte, error) {
				m, err := drift.NewMonitor(2, fixtureDriftBank())
				if err != nil {
					return nil, err
				}
				for _, p := range fixtureStream(6, 30, 2) {
					m.Observe(p)
				}
				return m.MarshalBinary()
			},
			reencode: func(data []byte) ([]byte, error) {
				return marshalTwice(drift.UnmarshalMonitor(data, 2, fixtureDriftBank()))
			},
		},
		detectorCase(detector.KindKernelChain),
		detectorCase(detector.KindQn),
		detectorCase(detector.KindCoreset),
		detectorCase(detector.KindEWMA),
		{
			name:  "ODPS",
			build: func() ([]byte, error) { return fixturePipelineBlob(fixturePipelineConfig(), 32, 48) },
			reencode: func(data []byte) ([]byte, error) {
				p, err := RestorePipeline(fixturePipelineConfig(), data)
				if err != nil {
					return nil, err
				}
				return p.Snapshot()
			},
		},
		{
			name: "ODSV",
			build: func() ([]byte, error) {
				cfg := fixtureLightConfig()
				blobs := make([][]byte, 2)
				for i := range blobs {
					var err error
					if blobs[i], err = fixturePipelineBlob(cfg, 33+int64(i), 20); err != nil {
						return nil, err
					}
				}
				return encodeFile(2, cfg, blobs), nil
			},
			reencode: func(data []byte) ([]byte, error) {
				cfg := fixtureLightConfig()
				blobs, err := decodeFile(data, 2, cfg)
				if err != nil {
					return nil, err
				}
				return encodeFile(2, cfg, blobs), nil
			},
		},
		{
			name: "ODSH",
			build: func() ([]byte, error) {
				cfg := fixtureLightConfig()
				blob, err := fixturePipelineBlob(cfg, 35, 20)
				if err != nil {
					return nil, err
				}
				return AppendShipFrame(nil, 3, fingerprint(4, cfg), blob), nil
			},
			reencode: func(data []byte) ([]byte, error) {
				shard, fp, blob, err := DecodeShipFrame(data)
				if err != nil {
					return nil, err
				}
				return AppendShipFrame(nil, shard, fp, blob), nil
			},
		},
		{
			name: "ODRP",
			build: func() ([]byte, error) {
				return appendReplFrame(nil, 1, 42, fixtureReadings(), 2, fixtureWireFP), nil
			},
			reencode: func(data []byte) ([]byte, error) {
				shard, from, inner, err := decodeReplFrame(data)
				if err != nil {
					return nil, err
				}
				rs, err := DecodeBatchInto(inner, nil, 2, 64, fixtureWireFP, &Interner{})
				if err != nil {
					return nil, err
				}
				return appendReplFrame(nil, shard, from, rs, 2, fixtureWireFP), nil
			},
		},
		{
			name: "ODWB",
			build: func() ([]byte, error) {
				return AppendBatch(nil, fixtureReadings(), 2, fixtureWireFP), nil
			},
			reencode: func(data []byte) ([]byte, error) {
				rs, err := DecodeBatchInto(data, nil, 2, 64, fixtureWireFP, &Interner{})
				if err != nil {
					return nil, err
				}
				return AppendBatch(nil, rs, 2, fixtureWireFP), nil
			},
		},
		{
			name: "ODWR",
			build: func() ([]byte, error) {
				res := []ReadingResult{
					{Shard: 0, Accepted: true, Seq: 7, Outlier: true, Warmed: true},
					{Shard: 3, Accepted: true, Seq: 8, Exact: true, Warmed: true},
					{Shard: 1},
					{Shard: 2, Accepted: true, Seq: 1 << 40},
				}
				return AppendResults(nil, res, 1, 250), nil
			},
			reencode: func(data []byte) ([]byte, error) {
				res, rejected, retryMS, err := DecodeResultsInto(data, nil)
				if err != nil {
					return nil, err
				}
				return AppendResults(nil, res, rejected, retryMS), nil
			},
		},
		{
			name: "ODWS",
			build: func() ([]byte, error) {
				b := AppendStreamHeader(nil)
				b = AppendVerdictFrame(b, Event{Sensor: "s-0", Shard: 2, Seq: 9, Outlier: true, Warmed: true})
				b = AppendGapFrame(b, 17)
				b = AppendVerdictFrame(b, Event{Sensor: "sensor-long-name", Shard: 0, Seq: 10, Exact: true})
				return b, nil
			},
			reencode: func(data []byte) ([]byte, error) {
				sr := NewStreamReader(bytes.NewReader(data))
				out := AppendStreamHeader(nil)
				for {
					ev, gap, kind, err := sr.Next()
					if err == io.EOF && len(data) >= wireStreamHeaderLen {
						return out, nil
					}
					if err != nil {
						return nil, err
					}
					if kind == StreamFrameGap {
						out = AppendGapFrame(out, gap)
					} else {
						out = AppendVerdictFrame(out, ev)
					}
				}
			},
		},
	}
	return cases
}

// allocatedBy reports the bytes allocated while f runs (single-goroutine;
// the fixture subtests do not run in parallel).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestFormatFixtures(t *testing.T) {
	for _, fc := range formatCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "formats", fc.name+".bin")
			built, err := fc.build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if *updateFixtures {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, built, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update-fixtures to create)", err)
			}
			if !bytes.Equal(built, want) {
				t.Fatalf("encoder output (%d bytes) differs from fixture (%d bytes)", len(built), len(want))
			}
			var again []byte
			base := allocatedBy(func() { again, err = fc.reencode(want) })
			if err != nil {
				t.Fatalf("decode fixture: %v", err)
			}
			if !bytes.Equal(again, want) {
				t.Fatalf("decode → re-encode (%d bytes) differs from fixture (%d bytes)", len(again), len(want))
			}
			hostileSweep(t, fc, want, base+hostileAllocSlack)
			for what, edit := range fc.refuse {
				bad := bytes.Clone(want)
				edit(bad)
				if _, err := fc.reencode(bad); err == nil {
					t.Errorf("%s: decoded", what)
				}
			}
		})
	}
}

// hostileSweep feeds every proper prefix and every single-bit flip of the
// fixture to the decoder. Allocation is metered per group of mutations
// (one ReadMemStats pair per byte position) and re-metered per mutation
// only when a group exceeds the single-mutation limit, so the common case
// costs one meter read per fixture byte. Only the decode of the mutated
// input is metered; the fixed-point check on an accepted mutation runs
// after the meter is read.
func hostileSweep(t *testing.T, fc formatCase, fixture []byte, limit uint64) {
	type mutation struct {
		what string
		data []byte
	}
	decode := func(m mutation) []byte {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: decoder panicked: %v", m.what, r)
			}
		}()
		enc, err := fc.reencode(m.data)
		if err != nil {
			return nil
		}
		return enc
	}
	sweep := func(group []mutation) {
		accepted := make([][]byte, len(group))
		if allocatedBy(func() {
			for i, m := range group {
				accepted[i] = decode(m)
			}
		}) > limit {
			for _, m := range group {
				if got := allocatedBy(func() { decode(m) }); got > limit {
					t.Fatalf("%s: decoder allocated %d bytes, limit %d", m.what, got, limit)
				}
			}
		}
		for i, enc := range accepted {
			// An accepted mutation that re-encodes to itself is a fixed
			// point already (decoding is deterministic); only a decoder that
			// normalised something needs the second pass.
			if enc == nil || bytes.Equal(enc, group[i].data) {
				continue
			}
			enc2, err := fc.reencode(enc)
			if err != nil {
				t.Fatalf("%s: decoded, but its re-encoding does not decode: %v", group[i].what, err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("%s: decoded to a value whose encoding is not canonical", group[i].what)
			}
		}
	}

	const perGroup = 8
	var group []mutation
	for n := 0; n < len(fixture); n++ {
		group = append(group, mutation{fmt.Sprintf("prefix of %d bytes", n), fixture[:n]})
		if len(group) == perGroup || n == len(fixture)-1 {
			sweep(group)
			group = group[:0]
		}
	}
	for i := range fixture {
		for bit := 0; bit < 8; bit++ {
			flipped := bytes.Clone(fixture)
			flipped[i] ^= 1 << bit
			group = append(group, mutation{fmt.Sprintf("bit %d of byte %d flipped", bit, i), flipped})
		}
		sweep(group)
		group = group[:0]
	}
}
