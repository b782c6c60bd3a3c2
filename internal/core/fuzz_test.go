package core

import (
	"testing"

	"odds/internal/binfmt"
	"odds/internal/stats"
)

// withSampleSection returns the ODES blob with its embedded sample
// section (the length-prefixed field after the 72-byte header) replaced.
func withSampleSection(odes, smp []byte) []byte {
	const headerLen = 4 + 4 + 8*8
	r := binfmt.NewReader(odes[headerLen:])
	r.Bytes()
	w := binfmt.Writer{B: append([]byte(nil), odes[:headerLen]...)}
	w.Bytes(smp)
	return append(w.B, r.Rest()...)
}

// hostileSample is the 60-byte ODSB blob of sample's
// TestUnmarshalChainSizesNothingFromCounts: one empty slot, then an
// expiry-map entry claiming a 1<<24-element list that is not there.
func hostileSample() []byte {
	var w binfmt.Writer
	w.U32(0x4f445342) // "ODSB"
	w.U32(1)          // slots
	w.U64(100)        // window
	w.U32(1)          // dim
	w.U64(0)          // arrivals
	w.U32(0)          // slot 0: no sample
	w.U64(0)          // awaited index
	w.U32(0)          // chain length
	w.U32(1)          // expiry map entries
	w.U64(7)          // entry index
	w.U32(1 << 24)
	return w.B
}

// FuzzUnmarshalEstimatorState hardens the leader-handoff wire format: any
// byte string must decode cleanly or error — never panic.
func FuzzUnmarshalEstimatorState(f *testing.F) {
	cfg := testConfig(1)
	e := NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), stats.NewRand(1))
	for i := 0; i < 300; i++ {
		e.Observe([]float64{float64(i%17) / 17})
	}
	seed, err := e.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:20])
	f.Add(withSampleSection(seed, hostileSample()))
	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := UnmarshalEstimator(data, stats.NewRand(2))
		if err != nil {
			return
		}
		// A successfully decoded estimator must keep functioning.
		back.Observe([]float64{0.5})
		if back.Model() == nil && back.Arrivals() > 0 {
			t.Fatal("decoded estimator cannot build a model")
		}
	})
}
