package detector

// Per-backend snapshot contract tests: a Snapshot→Restore round trip is
// bit-exact (the restored instance re-snapshots to the same bytes and
// produces the same verdict stream), and malformed or mismatched blobs
// fail closed without panicking.

import (
	"testing"

	"odds/internal/binfmt"
	"odds/internal/kernel"
	"odds/internal/oracle"
)

// feedStream ingests n oracle-stream readings into det, returning them.
func feedStream(t *testing.T, det Detector, c oracle.Config, n int) [][]float64 {
	t.Helper()
	s := c.NewStream()
	hist := make([][]float64, n)
	for i := range hist {
		hist[i] = append([]float64(nil), s.Next()...)
		det.Ingest(hist[i])
	}
	return hist
}

func TestSnapshotRoundTripBitExact(t *testing.T) {
	oc := oracle.Config{Dim: 2, WindowCap: 80, Steps: 240, Seed: 99}
	for _, k := range AllKinds() {
		k := k
		t.Run(string(k), func(t *testing.T) {
			cfg := testConfig(k, oc.Dim, oc.Seed)
			det, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			feedStream(t, det, oc, oc.Steps)
			blob, err := det.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Restore(blob); err != nil {
				t.Fatal(err)
			}
			reblob, err := fresh.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if string(reblob) != string(blob) {
				t.Fatalf("re-snapshot of restored %s differs from original (%d vs %d bytes)", k, len(reblob), len(blob))
			}
			if a, b := det.Stats(), fresh.Stats(); a != b {
				t.Fatalf("restored %s stats %+v != original %+v", k, b, a)
			}
			// The two instances must now be indistinguishable under further
			// ingest: same verdicts, same final state bytes.
			s := oc.NewStream()
			for i := 0; i < 160; i++ {
				v := s.Next()
				a := det.Ingest(v)
				b := fresh.Ingest(v)
				if a != b {
					t.Fatalf("%s verdict %d diverged after restore: %+v vs %+v", k, i, a, b)
				}
			}
			sa, _ := det.Snapshot()
			sb, _ := fresh.Snapshot()
			if string(sa) != string(sb) {
				t.Fatalf("%s state diverged after post-restore ingest", k)
			}
		})
	}
}

// TestSnapshotEmptyRoundTrip covers the zero-arrival edge: an empty
// backend snapshots and restores cleanly.
func TestSnapshotEmptyRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		cfg := testConfig(k, 3, 1)
		det, _ := New(cfg)
		blob, err := det.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		fresh, _ := New(cfg)
		if err := fresh.Restore(blob); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		reblob, _ := fresh.Snapshot()
		if string(reblob) != string(blob) {
			t.Fatalf("%s: empty round trip not bit-exact", k)
		}
	}
}

// TestRestoreMalformed sweeps truncations and corruptions of every
// backend's blob: Restore must reject them with an error — never panic,
// never accept — and a failed restore must leave the detector usable.
func TestRestoreMalformed(t *testing.T) {
	oc := oracle.Config{Dim: 2, WindowCap: 60, Steps: 150, Seed: 31}
	for _, k := range AllKinds() {
		k := k
		t.Run(string(k), func(t *testing.T) {
			cfg := testConfig(k, oc.Dim, oc.Seed)
			det, _ := New(cfg)
			feedStream(t, det, oc, oc.Steps)
			blob, err := det.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			victim, _ := New(cfg)
			// Every strict prefix must be rejected.
			for cut := 0; cut < len(blob); cut += 1 + len(blob)/257 {
				if err := victim.Restore(blob[:cut]); err == nil {
					t.Fatalf("truncation at %d/%d accepted", cut, len(blob))
				}
			}
			// Trailing garbage must be rejected.
			if err := victim.Restore(append(append([]byte(nil), blob...), 0x51)); err == nil {
				t.Fatal("trailing byte accepted")
			}
			// Corrupted magic must be rejected.
			bad := append([]byte(nil), blob...)
			bad[0] ^= 0xff
			if err := victim.Restore(bad); err == nil {
				t.Fatal("corrupted magic accepted")
			}
			// After all the failed restores the victim still works.
			if err := victim.Restore(blob); err != nil {
				t.Fatalf("valid restore after failures: %v", err)
			}
			s := oc.NewStream()
			for i := 0; i < 20; i++ {
				victim.Ingest(s.Next())
			}
		})
	}
}

// TestRestoreRefusesImmutableModel swaps a warm kernelchain snapshot's
// model section for the same centers in the immutable ODDS form: the
// estimator only patches maintained models in place, so Restore must
// refuse the blob rather than hand the next arrival a model it cannot
// refresh.
func TestRestoreRefusesImmutableModel(t *testing.T) {
	oc := oracle.Config{Dim: 2, WindowCap: 60, Steps: 150, Seed: 31}
	cfg := testConfig(KindKernelChain, oc.Dim, oc.Seed)
	det, _ := New(cfg)
	feedStream(t, det, oc, oc.Steps)
	blob, err := det.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	kc := det.(*KernelChain)
	r, err := openBlob(blob, KindKernelChain, kc.fp)
	if err != nil {
		t.Fatal(err)
	}
	rngN, flagged := r.U64(), r.U64()
	estBlob, modelBlob := r.Bytes(), r.Bytes()
	wc, dirty, sinceBuild := r.F64(), r.U8(), r.U64()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	m, err := kernel.UnmarshalEstimator(modelBlob, cfg.Core.SampleSize)
	if err != nil || !m.IsMaintained() {
		t.Fatalf("snapshot model: maintained %v, err %v", err == nil && m.IsMaintained(), err)
	}
	bw := make([]float64, m.Dim())
	for i := range bw {
		bw[i] = m.Bandwidth(i)
	}
	imm, err := kernel.New(m.Centers(), bw, m.WindowCount())
	if err != nil {
		t.Fatal(err)
	}
	immBlob, err := imm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	reseal := func(model []byte) []byte {
		w := binfmt.Writer{}
		w.U64(rngN)
		w.U64(flagged)
		w.Bytes(estBlob)
		w.Bytes(model)
		w.F64(wc)
		w.U8(dirty)
		w.U64(sinceBuild)
		return sealBlob(KindKernelChain, kc.fp, w.B)
	}
	if string(reseal(modelBlob)) != string(blob) {
		t.Fatal("resealing the untouched sections does not reproduce the snapshot")
	}
	victim, _ := New(cfg)
	if err := victim.Restore(reseal(immBlob)); err == nil {
		t.Fatal("kernelchain restore accepted an immutable model")
	}
	// The refusal leaves the victim usable.
	s := oc.NewStream()
	for i := 0; i < 20; i++ {
		victim.Ingest(s.Next())
	}
}
