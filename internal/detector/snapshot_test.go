package detector

// Per-backend snapshot contract tests: a Snapshot→Restore round trip is
// bit-exact (the restored instance re-snapshots to the same bytes and
// produces the same verdict stream), and malformed or mismatched blobs
// fail closed without panicking.

import (
	"encoding/binary"
	"math"
	"testing"

	"odds/internal/binfmt"
	"odds/internal/kernel"
	"odds/internal/oracle"
	"odds/internal/window"
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

// kernelChainSections is a kernelchain snapshot split into its sections,
// so a test can forge one section and reseal the rest untouched.
type kernelChainSections struct {
	fp                 []byte
	rngN, flagged      uint64
	estBlob, modelBlob []byte
	wc                 float64
	dirty              uint8
	sinceBuild         uint64
}

func splitKernelChain(tb testing.TB, kc *KernelChain, blob []byte) kernelChainSections {
	tb.Helper()
	r, err := openBlob(blob, KindKernelChain, kc.fp)
	if err != nil {
		tb.Fatal(err)
	}
	s := kernelChainSections{fp: kc.fp}
	s.rngN, s.flagged = r.U64(), r.U64()
	s.estBlob, s.modelBlob = r.Bytes(), r.Bytes()
	s.wc, s.dirty, s.sinceBuild = r.F64(), r.U8(), r.U64()
	if err := r.Done(); err != nil {
		tb.Fatal(err)
	}
	if string(s.seal()) != string(blob) {
		tb.Fatal("resealing the untouched sections does not reproduce the snapshot")
	}
	return s
}

func (s kernelChainSections) seal() []byte {
	w := binfmt.Writer{}
	w.U64(s.rngN)
	w.U64(s.flagged)
	w.Bytes(s.estBlob)
	w.Bytes(s.modelBlob)
	w.F64(s.wc)
	w.U8(s.dirty)
	w.U64(s.sinceBuild)
	return sealBlob(KindKernelChain, s.fp, w.B)
}

// sectionModel decodes the snapshot's model section.
func (s kernelChainSections) sectionModel(tb testing.TB, sampleSize int) *kernel.Estimator {
	tb.Helper()
	m, err := kernel.UnmarshalEstimator(s.modelBlob, sampleSize)
	if err != nil {
		tb.Fatalf("snapshot model: %v", err)
	}
	return m
}

func modelBandwidths(m *kernel.Estimator) []float64 {
	bw := make([]float64, m.Dim())
	for i := range bw {
		bw[i] = m.Bandwidth(i)
	}
	return bw
}

// forgedKernelChainSnapshots derives, from a warm kernelchain snapshot,
// blobs whose every section decodes on its own but whose sections
// disagree in a way the estimator cannot run with. Restore must refuse
// each; accepting one leaves a shard that panics at its next model
// refresh or reads the wrong number of sample slots.
func forgedKernelChainSnapshots(tb testing.TB, kc *KernelChain, blob []byte) map[string][]byte {
	tb.Helper()
	s := splitKernelChain(tb, kc, blob)
	m := s.sectionModel(tb, kc.cfg.Core.SampleSize)
	reseal := func(est, model []byte) []byte {
		f := s
		f.estBlob, f.modelBlob = est, model
		return f.seal()
	}
	encode := func(m *kernel.Estimator, err error) []byte {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		b, err := m.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	out := map[string][]byte{}

	// The estimator header claims one sample slot more than its chain
	// holds (SampleSize is the u64 after magic, dim and window).
	est := append([]byte(nil), s.estBlob...)
	size := binfmt.Writer{}
	size.U64(uint64(kc.cfg.Core.SampleSize + 1))
	copy(est[16:], size.B)
	out["header sample size != chain size"] = reseal(est, s.modelBlob)

	// The chain blob (after the estimator's 72-byte header and its length
	// prefix) claims a window of 2⁶³−1 at stream position 3.5·10¹⁸, the
	// shape of blob FuzzDetectorSnapshot found once it ingested after a
	// restore: every slot index stays consistent with the position, and
	// an arrival's adoption skip overflows into a negative slot index.
	est = append([]byte(nil), s.estBlob...)
	pos := binfmt.Writer{}
	pos.U64(math.MaxInt64)
	copy(est[76+8:], pos.B)
	pos.B = pos.B[:0]
	pos.U64(3_500_000_000_000_000_000)
	copy(est[76+20:], pos.B)
	out["chain position overflows window arithmetic"] = reseal(est, s.modelBlob)

	// The chain's expiry schedule (an event map: entry count, then index,
	// list length, slots) forged three ways no encoder writes: its first
	// index moved back to the stream position, its second index repeating
	// the first, and its first list emptied. A calendar holding the first
	// would never pop another event.
	out["chain event index at stream position"] = reseal(forgeChainSchedule(tb, s.estBlob,
		func(chain []byte, first, _ int, n uint64) []byte {
			binary.LittleEndian.PutUint64(chain[first:], n)
			return chain
		}), s.modelBlob)
	out["chain event index repeated"] = reseal(forgeChainSchedule(tb, s.estBlob,
		func(chain []byte, first, second int, _ uint64) []byte {
			copy(chain[second:second+8], chain[first:first+8])
			return chain
		}), s.modelBlob)
	out["chain event list empty"] = reseal(forgeChainSchedule(tb, s.estBlob,
		func(chain []byte, first, second int, _ uint64) []byte {
			binary.LittleEndian.PutUint32(chain[first+8:], 0)
			return append(chain[:first+12], chain[second:]...)
		}), s.modelBlob)

	// A maintained model over half the slots: it decodes under the
	// sample-size cap, but the first refresh patches a slot it lacks.
	half := kc.cfg.Core.SampleSize / 2
	centers := m.Centers()[:half]
	slots := make([]int, half)
	for i := range slots {
		slots[i] = i
	}
	out["model slots != chain size"] = reseal(s.estBlob,
		encode(kernel.NewMaintained(centers, slots, half, modelBandwidths(m), m.WindowCount())))

	// A maintained model of the wrong dimensionality.
	flat := make([]window.Point, len(m.Centers()))
	slots = make([]int, len(flat))
	for i, c := range m.Centers() {
		flat[i], slots[i] = window.Point{c[0]}, i
	}
	out["model dim != config dim"] = reseal(s.estBlob,
		encode(kernel.NewMaintained(flat, slots, m.MaxSlots(), modelBandwidths(m)[:1], m.WindowCount())))
	return out
}

// forgeChainSchedule rewrites the chain section of an estimator blob (after
// its 72-byte header and the section's length prefix) with forge, which
// gets a copy of the chain blob, the offsets of its expiry schedule's first
// and second entries, and its stream position.
func forgeChainSchedule(tb testing.TB, est []byte, forge func(chain []byte, first, second int, n uint64) []byte) []byte {
	tb.Helper()
	size := int(binary.LittleEndian.Uint32(est[72:]))
	chain := append([]byte(nil), est[76:76+size]...)
	r := binfmt.NewReader(chain)
	r.U32() // magic
	k := int(r.U32())
	r.U64() // window
	dim := int(r.U32())
	n := r.U64()
	pt := make([]float64, dim)
	for i := 0; i < k; i++ {
		if r.U32() == 1 {
			r.U64()
			r.F64s(pt)
		}
		r.U64() // awaited index
		for j, m := 0, int(r.U32()); j < m; j++ {
			r.U64()
			r.F64s(pt)
		}
	}
	if r.U32() < 2 || r.Err() != nil {
		tb.Fatalf("chain expiry schedule unreadable or shorter than two indexes: %v", r.Err())
	}
	first := len(chain) - r.Len()
	second := first + 12 + 4*int(binary.LittleEndian.Uint32(chain[first+8:]))
	chain = forge(chain, first, second, n)
	w := binfmt.Writer{B: append([]byte(nil), est[:72]...)}
	w.Bytes(chain)
	return append(w.B, est[76+size:]...)
}

// TestRestoreRefusesForgedKernelChain feeds Restore kernelchain snapshots
// whose sections were forged to disagree (see forgedKernelChainSnapshots):
// each must be refused with an error, and the refusals leave the victim
// usable.
func TestRestoreRefusesForgedKernelChain(t *testing.T) {
	oc := oracle.Config{Dim: 2, WindowCap: 60, Steps: 150, Seed: 31}
	cfg := testConfig(KindKernelChain, oc.Dim, oc.Seed)
	det, _ := New(cfg)
	feedStream(t, det, oc, oc.Steps)
	blob, err := det.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	victim, _ := New(cfg)
	for name, forged := range forgedKernelChainSnapshots(t, det.(*KernelChain), blob) {
		if err := victim.Restore(forged); err == nil {
			t.Errorf("%s: kernelchain restore accepted the forgery", name)
		}
	}
	s := oc.NewStream()
	for i := 0; i < 20; i++ {
		victim.Ingest(s.Next())
	}
}

// legacyModelBlob hand-builds m's centers in the retired immutable model
// encoding, "ODDS": magic, dim, window count, bandwidths, center count,
// then the centers.
func legacyModelBlob(m *kernel.Estimator) []byte {
	var w binfmt.Writer
	w.U32(0x4f444453)
	w.U32(uint32(m.Dim()))
	w.F64(m.WindowCount())
	w.F64s(modelBandwidths(m))
	centers := m.Centers()
	w.U32(uint32(len(centers)))
	for _, c := range centers {
		w.F64s(c)
	}
	return w.B
}

// spliceCoresetModel replaces the model section — the last field — of a
// warm coreset snapshot with model and reseals the rest untouched.
func spliceCoresetModel(tb testing.TB, c *Coreset, blob, model []byte) []byte {
	tb.Helper()
	r, err := openBlob(blob, KindCoreset, c.fp)
	if err != nil {
		tb.Fatal(err)
	}
	state := blob[len(blob)-r.Len():]
	r.U64() // rng state
	r.U64() // arrivals
	r.U64() // flagged
	filled := int(r.U32())
	r.U8()  // dirty
	r.U64() // since build
	r.F64() // mass
	r.F64s(make([]float64, (filled+2)*c.cfg.Dim))
	old := r.Bytes()
	if err := r.Done(); err != nil || len(old) == 0 {
		tb.Fatalf("coreset snapshot without a model section: %v", err)
	}
	w := binfmt.Writer{B: append([]byte(nil), state[:len(state)-4-len(old)]...)}
	w.Bytes(model)
	return sealBlob(KindCoreset, c.fp, w.B)
}

// TestRestoreRefusesImmutableModel splices the same centers, in the
// retired immutable ODDS encoding, into a warm kernelchain and a warm
// coreset snapshot's model section: every model is patched in place, and
// the only model encoding is ODKM, so Restore must refuse both blobs and
// leave each victim usable.
func TestRestoreRefusesImmutableModel(t *testing.T) {
	oc := oracle.Config{Dim: 2, WindowCap: 60, Steps: 150, Seed: 31}
	for _, kind := range []Kind{KindKernelChain, KindCoreset} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := testConfig(kind, oc.Dim, oc.Seed)
			det, _ := New(cfg)
			feedStream(t, det, oc, oc.Steps)
			blob, err := det.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var forged []byte
			switch d := det.(type) {
			case *KernelChain:
				s := splitKernelChain(t, d, blob)
				s.modelBlob = legacyModelBlob(s.sectionModel(t, cfg.Core.SampleSize))
				forged = s.seal()
			case *Coreset:
				forged = spliceCoresetModel(t, d, blob, legacyModelBlob(d.model))
			}
			victim, _ := New(cfg)
			if err := victim.Restore(forged); err == nil {
				t.Fatalf("%s restore accepted an immutable model", kind)
			}
			// The refusal leaves the victim usable.
			st := oc.NewStream()
			for i := 0; i < 20; i++ {
				victim.Ingest(st.Next())
			}
		})
	}
}
