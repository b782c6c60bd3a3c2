package kernel

import (
	"math"
	"runtime"
	"testing"

	"odds/internal/binfmt"
	"odds/internal/stats"
	"odds/internal/window"
)

func roundTripModel(t *testing.T, dim int, n int) (*Estimator, *Estimator) {
	t.Helper()
	r := stats.NewRand(71)
	pts := make([]window.Point, n)
	for i := range pts {
		p := make(window.Point, dim)
		for j := range p {
			p[j] = r.Float64()
		}
		pts[i] = p
	}
	sig := make([]float64, dim)
	for i := range sig {
		sig[i] = 0.05 + 0.01*float64(i)
	}
	e, err := FromSample(pts, sig, 5000)
	if err != nil {
		t.Fatal(err)
	}
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != e.MarshaledSize() {
		t.Fatalf("encoded %d bytes, MarshaledSize says %d", len(data), e.MarshaledSize())
	}
	back, err := UnmarshalEstimator(data, e.MaxSlots())
	if err != nil {
		t.Fatal(err)
	}
	return e, back
}

func TestMarshalRoundTrip1D(t *testing.T) {
	e, back := roundTripModel(t, 1, 120)
	if back.Dim() != 1 || back.SampleSize() != e.SampleSize() || back.WindowCount() != e.WindowCount() {
		t.Fatal("header mismatch after round trip")
	}
	for _, q := range [][2]float64{{0.1, 0.3}, {0.45, 0.55}, {0, 1}} {
		a := e.ProbBox([]float64{q[0]}, []float64{q[1]})
		b := back.ProbBox([]float64{q[0]}, []float64{q[1]})
		if math.Abs(a-b) > 1e-15 {
			t.Errorf("query %v: %v vs %v", q, a, b)
		}
	}
}

func TestMarshalRoundTrip3D(t *testing.T) {
	e, back := roundTripModel(t, 3, 40)
	lo := []float64{0.2, 0.2, 0.2}
	hi := []float64{0.8, 0.8, 0.8}
	if math.Abs(e.ProbBox(lo, hi)-back.ProbBox(lo, hi)) > 1e-15 {
		t.Error("3-d round trip differs")
	}
	if back.Bandwidth(2) != e.Bandwidth(2) {
		t.Error("bandwidths not preserved")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	e, _ := roundTripModel(t, 1, 10)
	data, _ := e.MarshalBinary()
	cases := map[string][]byte{
		"empty":      nil,
		"short":      data[:6],
		"bad magic":  append([]byte{1, 2, 3, 4}, data[4:]...),
		"truncated":  data[:len(data)-5],
		"extra tail": append(append([]byte(nil), data...), 0xFF),
	}
	for name, d := range cases {
		if _, err := UnmarshalEstimator(d, e.MaxSlots()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMarshalSizeIsODR(t *testing.T) {
	// The wire size must be dominated by d·|R| centers — the O(d|R|) the
	// paper charges for shipping a model — plus each center's slot key
	// and tombstone flag.
	e, _ := roundTripModel(t, 2, 200)
	want := 8 * 2 * 200 // center payload
	keys := (4 + 1) * 200
	if e.MarshaledSize() < want || e.MarshaledSize() > want+keys+100 {
		t.Errorf("size %d not dominated by centers (%d) and their keys (%d)", e.MarshaledSize(), want, keys)
	}
}

// headerOnlyMaintained is a 36-byte ODKM blob: a complete, plausible
// header and bandwidth for a 1<<24-slot model, and no payload at all.
func headerOnlyMaintained() []byte {
	var w binfmt.Writer
	w.U32(modelMagic)
	w.U32(1)              // dim
	w.U32(1 << 24)        // slot capacity
	w.U32(1)              // physical length
	w.U32(math.MaxUint32) // prune dimension -1
	w.F64(100)            // window count
	w.F64(0.05)           // bandwidth
	return w.B
}

// TestUnmarshalMaintainedSizesNothingFromHeader pins the allocation-
// before-bounds fix: the header above used to size newMaint's arrays
// (1.2 GiB at dim 1) before the missing payload was noticed. It must fail
// closed whether the caller's capacity rules the claim out or admits it.
func TestUnmarshalMaintainedSizesNothingFromHeader(t *testing.T) {
	blob := headerOnlyMaintained()
	if len(blob) != 36 {
		t.Fatalf("blob is %d bytes, want 36", len(blob))
	}
	for _, maxSlots := range []int{256, 1 << 24} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := UnmarshalEstimator(blob, maxSlots)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("maxSlots %d: header-only blob accepted", maxSlots)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("maxSlots %d: rejecting the blob allocated %d bytes", maxSlots, got)
		}
	}
}
