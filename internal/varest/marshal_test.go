package varest

import (
	"math"
	"slices"
	"testing"

	"odds/internal/binfmt"

	"odds/internal/stats"
)

func TestSketchMarshalRoundTrip(t *testing.T) {
	e := New(500, 0.2)
	r := stats.NewRand(1)
	for i := 0; i < 2000; i++ {
		e.Push(r.NormFloat64()*2 + 5)
	}
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalEstimator(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.WindowCap() != 500 || back.Eps() != 0.2 || back.Seen() != e.Seen() {
		t.Fatal("header mismatch")
	}
	if math.Abs(back.Mean()-e.Mean()) > 1e-12 {
		t.Errorf("mean differs: %v vs %v", back.Mean(), e.Mean())
	}
	if math.Abs(back.Variance()-e.Variance()) > 1e-12 {
		t.Errorf("variance differs: %v vs %v", back.Variance(), e.Variance())
	}
	// The restored sketch continues identically (it is deterministic).
	for i := 0; i < 1000; i++ {
		x := r.NormFloat64()
		e.Push(x)
		back.Push(x)
	}
	if math.Abs(back.Variance()-e.Variance()) > 1e-12 {
		t.Errorf("post-handoff variance differs: %v vs %v", back.Variance(), e.Variance())
	}
}

// TestRestoreContinuesAtEveryPhase hands the sketch over at each offset
// into the compaction schedule: the schedule is a function of the arrival
// counter and |W|, both in the encoding, so the restored sketch must
// compact on the same arrivals and hold the same bucket list, bit for bit,
// ever after.
func TestRestoreContinuesAtEveryPhase(t *testing.T) {
	const wcap = 8192 // the smallest window on the 16-arrival schedule
	for phase := 0; phase < maxEvery; phase++ {
		e := New(wcap, 0.2)
		r := stats.NewRand(int64(phase))
		for i := 0; i < wcap+wcap/2+phase; i++ { // past the fill; last compaction `phase` arrivals ago
			e.Push(r.NormFloat64()*2 + 5)
		}
		data, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalEstimator(data)
		if err != nil {
			t.Fatalf("phase %d: %v", phase, err)
		}
		if back.every != maxEvery || len(back.buckets) != len(e.buckets) {
			t.Fatalf("phase %d: restored with period %d and %d buckets, original %d and %d", phase, back.every, len(back.buckets), e.every, len(e.buckets))
		}
		for i := 0; i < 3*wcap; i++ {
			x := r.NormFloat64() + float64(i)/50
			e.Push(x)
			back.Push(x)
			if !slices.Equal(e.buckets, back.buckets) {
				t.Fatalf("phase %d: bucket lists diverge %d arrivals after the restore", phase, i+1)
			}
		}
	}
}

func TestSketchUnmarshalRejectsGarbage(t *testing.T) {
	e := New(100, 0.2)
	for i := 0; i < 300; i++ {
		e.Push(float64(i % 7))
	}
	data, _ := e.MarshalBinary()
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": append([]byte{1, 2, 3, 4}, data[4:]...),
		"truncated": data[:len(data)-7],
	}
	for name, d := range cases {
		if _, err := UnmarshalEstimator(d); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Corrupt a bucket range (first > last) — the consistency check must
	// catch it. Bucket payload starts at offset 32; first/last are the
	// first 16 bytes of each 32-byte bucket record.
	bad := append([]byte(nil), data...)
	for i := 32; i < 40; i++ {
		bad[i] = 0xFF
	}
	if _, err := UnmarshalEstimator(bad); err == nil {
		t.Error("inconsistent bucket accepted")
	}
}

// TestSketchUnmarshalRejectsPoison covers what MarshalBinary cannot
// produce but a corrupted or hostile blob can: moments that would restore
// cleanly and then poison every later bandwidth, an arrival index before
// the stream began, and more buckets than the sketch ever holds.
func TestSketchUnmarshalRejectsPoison(t *testing.T) {
	encode := func(w uint64, now uint64, buckets []bucket) []byte {
		b := binfmt.Writer{}
		b.U32(marshalMagic)
		b.U64(w)
		b.F64(0.5)
		b.U64(now)
		b.U32(uint32(len(buckets)))
		for _, k := range buckets {
			b.U64(k.first)
			b.U64(k.last)
			b.F64(k.mean)
			b.F64(k.v)
		}
		return b.B
	}
	good := []bucket{{first: 1, last: 4, mean: 2, v: 3}, {first: 5, last: 5, mean: 1}}
	if _, err := UnmarshalEstimator(encode(64, 5, good)); err != nil {
		t.Fatalf("well-formed blob refused: %v", err)
	}
	with := func(edit func(b *bucket)) []byte {
		bs := slices.Clone(good)
		edit(&bs[0])
		return encode(64, 5, bs)
	}
	over := make([]bucket, New(64, 0.5).hardCap+1)
	for i := range over {
		over[i] = bucket{first: uint64(i + 1), last: uint64(i + 1)}
	}
	for name, d := range map[string][]byte{
		"NaN v":        with(func(b *bucket) { b.v = math.NaN() }),
		"negative v":   with(func(b *bucket) { b.v = -1e-9 }),
		"infinite v":   with(func(b *bucket) { b.v = math.Inf(1) }),
		"NaN mean":     with(func(b *bucket) { b.mean = math.NaN() }),
		"-Inf mean":    with(func(b *bucket) { b.mean = math.Inf(-1) }),
		"first == 0":   with(func(b *bucket) { b.first = 0 }),
		"over the cap": encode(64, uint64(len(over)), over),
	} {
		if _, err := UnmarshalEstimator(d); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := UnmarshalEstimator(encode(64, uint64(len(over)-1), over[:len(over)-1])); err != nil {
		t.Errorf("a list exactly at the cap refused: %v", err)
	}
}
