package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"odds/internal/core"
	"odds/internal/distance"
	"odds/internal/mdef"
	"odds/internal/oracle"
	"odds/internal/window"
)

// testPipelineConfig builds a small pipeline configuration suitable for
// windows of the oracle scenarios' size.
func testPipelineConfig(kind DetectorKind, dim, wcap int, seed int64) PipelineConfig {
	ccfg := core.DefaultConfig(dim)
	ccfg.WindowCap = wcap
	ccfg.SampleSize = wcap / 3
	if ccfg.SampleSize < 1 {
		ccfg.SampleSize = 1
	}
	return PipelineConfig{
		Core:     ccfg,
		Kind:     kind,
		Distance: distance.Params{Radius: 0.05, Threshold: 3},
		MDEF:     mdef.Params{R: 0.2, AlphaR: 0.05, KSigma: 1.5},
		Seed:     seed,
	}
}

func verdictsEqual(a, b Verdict) bool { return a == b }

// TestSnapshotRestoreBitIdentical is the checkpoint/restore property test
// (satellite 4): for randomized oracle scenarios, snapshot→restore at an
// arbitrary cut point, then ingesting the remaining stream, must produce
// verdicts bit-identical to the uninterrupted pipeline. Failures shrink
// to a minimal reproducing point sequence with the oracle's ddmin.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	for _, kind := range []DetectorKind{DetectDistance, DetectMDEF} {
		kind := kind
		for _, cfg := range oracle.Configs(6, 0x5eed+int64(len(kind))) {
			cfg := cfg
			t.Run(string(kind)+"/"+cfg.Name(), func(t *testing.T) {
				t.Parallel()
				src := cfg.NewStream()
				pts := make([]window.Point, cfg.Steps)
				for i := range pts {
					pts[i] = src.Next()
				}
				cut := cfg.Steps / 2
				if diff := snapshotDivergence(t, kind, cfg.Dim, cfg.WindowCap, cfg.Seed, pts, cut); diff != "" {
					min := oracle.ShrinkSlice(pts, func(sub []window.Point) bool {
						c := len(sub) / 2
						return snapshotDivergence(t, kind, cfg.Dim, cfg.WindowCap, cfg.Seed, sub, c) != ""
					})
					t.Fatalf("restore diverged: %s\nminimal reproducer (%d points, cut at len/2):\n%s",
						diff, len(min), oracle.Format(min))
				}
			})
		}
	}
}

// snapshotDivergence feeds pts into an uninterrupted pipeline and into a
// pipeline snapshotted+restored at index cut, returning a description of
// the first divergence ("" if none).
func snapshotDivergence(t *testing.T, kind DetectorKind, dim, wcap int, seed int64, pts []window.Point, cut int) string {
	t.Helper()
	pcfg := testPipelineConfig(kind, dim, wcap, seed)
	full, err := NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	broken, err := NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if cut > len(pts) {
		cut = len(pts)
	}
	for i := 0; i < cut; i++ {
		a := full.Ingest(pts[i])
		b := broken.Ingest(pts[i])
		if !verdictsEqual(a, b) {
			return fmt.Sprintf("pre-cut divergence at %d: %+v vs %+v", i, a, b)
		}
	}
	snap, err := broken.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestorePipeline(pcfg, snap)
	if err != nil {
		return fmt.Sprintf("restore failed: %v", err)
	}
	// The restored pipeline must also re-snapshot to the same bytes:
	// snapshots are a pure function of deterministic state.
	snap2, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != string(snap2) {
		return "re-snapshot of restored pipeline differs from original snapshot"
	}
	for i := cut; i < len(pts); i++ {
		a := full.Ingest(pts[i])
		b := restored.Ingest(pts[i])
		if !verdictsEqual(a, b) {
			return fmt.Sprintf("post-restore divergence at %d (cut %d): full %+v vs restored %+v", i, cut, a, b)
		}
	}
	// Read-only queries over the final state must agree too.
	probe := pts[len(pts)-1]
	qa, qb := full.QueryOutlier(probe), restored.QueryOutlier(probe)
	if !verdictsEqual(qa, qb) {
		return fmt.Sprintf("final query divergence: %+v vs %+v", qa, qb)
	}
	if pa, pb := full.QueryProb(probe, 0.05), restored.QueryProb(probe, 0.05); pa != pb {
		return fmt.Sprintf("final prob divergence: %v vs %v", pa, pb)
	}
	return ""
}

// TestSnapshotMidCadenceModel pins the subtle part of the snapshot
// contract: a cut between model rebuilds (RebuildEvery > 1) must restore
// the cached model itself, not rebuild from restore-time sigmas.
func TestSnapshotMidCadenceModel(t *testing.T) {
	pcfg := testPipelineConfig(DetectDistance, 1, 60, 77)
	pcfg.Core.RebuildEvery = 7 // force cuts to land mid-cadence
	src := oracle.Config{Dim: 1, WindowCap: 60, Steps: 300, Seed: 13}.NewStream()
	pts := make([]window.Point, 300)
	for i := range pts {
		pts[i] = src.Next()
	}
	for cut := 95; cut < 102; cut++ { // sweep across a rebuild boundary
		full, _ := NewPipeline(pcfg)
		broken, _ := NewPipeline(pcfg)
		for i := 0; i < cut; i++ {
			full.Ingest(pts[i])
			broken.Ingest(pts[i])
		}
		snap, err := broken.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestorePipeline(pcfg, snap)
		if err != nil {
			t.Fatal(err)
		}
		for i := cut; i < len(pts); i++ {
			a, b := full.Ingest(pts[i]), restored.Ingest(pts[i])
			if !verdictsEqual(a, b) {
				t.Fatalf("cut %d: divergence at %d: %+v vs %+v", cut, i, a, b)
			}
		}
	}
}

// TestSnapshotFileRoundTrip covers the server-level file framing: CRC,
// fingerprint validation, and shard blobs.
func TestSnapshotFileRoundTrip(t *testing.T) {
	cfg := testPipelineConfig(DetectDistance, 2, 50, 5)
	blobs := [][]byte{{1, 2, 3}, {}, {9}}
	data := encodeFile(3, cfg, blobs)

	got, err := decodeFile(data, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0]) != "\x01\x02\x03" || len(got[1]) != 0 || string(got[2]) != "\x09" {
		t.Fatalf("round trip mismatch: %v", got)
	}

	// Corruption is detected.
	bad := append([]byte(nil), data...)
	bad[10] ^= 0xff
	if _, err := decodeFile(bad, 3, cfg); err == nil {
		t.Fatal("corrupted file accepted")
	}
	// Config drift is detected.
	other := cfg
	other.Seed++
	if _, err := decodeFile(data, 3, other); err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}
	if _, err := decodeFile(data, 4, cfg); err == nil {
		t.Fatal("shard count mismatch accepted")
	}
}

// TestNewReportsFirstShardError restores from a file whose shard 2 and
// shard 5 blobs are both bad. New builds the shards concurrently, so
// either may fail first; New must still return shard 2's error, named as
// shard 2's, every time.
func TestNewReportsFirstShardError(t *testing.T) {
	const shards = 8
	pcfg := testPipelineConfig(DetectDistance, 1, 50, 5)
	shardCfg := func(i int) PipelineConfig {
		c := pcfg
		c.Seed = shardSeed(pcfg.Seed, i)
		return c
	}
	blobs := make([][]byte, shards)
	for i := range blobs {
		p, err := NewPipeline(shardCfg(i))
		if err != nil {
			t.Fatal(err)
		}
		if blobs[i], err = p.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	blobs[2] = blobs[2][:len(blobs[2])/2]
	blobs[5] = append([]byte{0, 0, 0, 0}, blobs[5][4:]...)
	_, err2 := RestorePipeline(shardCfg(2), blobs[2])
	_, err5 := RestorePipeline(shardCfg(5), blobs[5])
	if err2 == nil || err5 == nil || err2.Error() == err5.Error() {
		t.Fatalf("want two distinct restore errors, got %v and %v", err2, err5)
	}
	path := filepath.Join(t.TempDir(), "snap")
	if err := os.WriteFile(path, encodeFile(shards, pcfg, blobs), 0o600); err != nil {
		t.Fatal(err)
	}
	want := "serve: shard 2: " + err2.Error()
	for run := 0; run < 20; run++ {
		srv, err := New(Config{Shards: shards, Pipeline: pcfg, SnapshotPath: path})
		if err == nil {
			srv.Abort()
			t.Fatal("restore from a file with two bad blobs succeeded")
		}
		if err.Error() != want {
			t.Fatalf("run %d: %q, want %q", run, err, want)
		}
	}
}

// FuzzSnapshotFile: the snapshot-file decoder is a node's input surface
// twice over — the checkpoint read at start-up and the one-shard file
// op=install receives — so neither decodeFile nor the install's slot rule
// (decodeShardFile) may panic on arbitrary bytes and shard ids. A file that
// decodes re-encodes byte-identical, and a file the slot rule admits fills
// the named slot and no other. Every input is also tried with its trailing
// checksum resealed, so mutations reach the checks behind the CRC.
func FuzzSnapshotFile(f *testing.F) {
	const shards = 2
	cfg := fixtureLightConfig()
	fixture, err := os.ReadFile(filepath.Join("testdata", "formats", "ODSV.bin"))
	if err != nil {
		f.Fatal(err)
	}
	blob, err := fixturePipelineBlob(cfg, 35, 20)
	if err != nil {
		f.Fatal(err)
	}
	oneShard := encodeFile(shards, cfg, [][]byte{nil, blob})
	f.Add(fixture, int8(0))
	f.Add(oneShard, int8(1))
	f.Add(oneShard, int8(0))
	f.Add(encodeFile(shards, cfg, make([][]byte, shards)), int8(1))
	f.Add([]byte{}, int8(-1))
	f.Fuzz(func(t *testing.T, data []byte, id int8) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			sealed := bytes.Clone(data)
			binary.LittleEndian.PutUint32(sealed[len(sealed)-4:], crc32.ChecksumIEEE(sealed[:len(sealed)-4]))
			inputs = append(inputs, sealed)
		}
		for _, in := range inputs {
			blobs, err := decodeFile(in, shards, cfg)
			if err == nil && !bytes.Equal(encodeFile(shards, cfg, blobs), in) {
				t.Fatalf("non-canonical file: decode succeeded but re-encode differs\n in: %x", in)
			}
			got, err := decodeShardFile(in, int(id), shards, cfg)
			if err != nil {
				continue
			}
			if blobs == nil {
				t.Fatalf("slot rule admitted a file decodeFile refuses")
			}
			for i, b := range blobs {
				if (i == int(id)) != (len(b) > 0) {
					t.Fatalf("slot rule admitted shard %d with slot %d holding %d bytes", id, i, len(b))
				}
			}
			if !bytes.Equal(got, blobs[id]) {
				t.Fatalf("slot rule returned %d bytes, slot %d holds %d", len(got), id, len(blobs[id]))
			}
		}
	})
}
