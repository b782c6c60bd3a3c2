package kernel

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"odds/internal/stats"
	"odds/internal/window"
)

// FuzzUnmarshalEstimator hardens the model wire format against corrupt
// inputs: any byte string must either decode into a usable model or
// return an error — never panic, never produce NaN masses.
func FuzzUnmarshalEstimator(f *testing.F) {
	const fuzzMaxSlots = 1 << 12
	e, err := New([]window.Point{{0.2}, {0.5}, {0.8}}, []float64{0.05}, 100)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := e.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x4d, 0x4b, 0x44, 0x4f}) // magic only
	f.Add(headerOnlyMaintained())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalEstimator(data, fuzzMaxSlots)
		if err != nil {
			return
		}
		got := m.ProbBox(boxLo(m.Dim()), boxHi(m.Dim()))
		if math.IsNaN(got) || got < 0 {
			t.Fatalf("decoded model yields invalid mass %v", got)
		}
	})
}

func boxLo(d int) []float64 { return make([]float64, d) }
func boxHi(d int) []float64 {
	out := make([]float64, d)
	for i := range out {
		out[i] = 1
	}
	return out
}

// FuzzProbBoxPrunedVsNaive pins the generalized d-dimensional pruned scan
// bit-identical to the full-scan executable specification on random
// centers, bandwidths, and query boxes — including the batch entry point,
// which shares the same scan.
func FuzzProbBoxPrunedVsNaive(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(10), 0.3, 0.2)
	f.Add(int64(2), uint8(2), uint8(50), 0.0, 1.0)
	f.Add(int64(3), uint8(3), uint8(200), -0.5, 0.05)
	f.Add(int64(4), uint8(4), uint8(1), 0.9, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, dRaw, nRaw uint8, loBase, span float64) {
		if math.IsNaN(loBase) || math.IsInf(loBase, 0) || math.IsNaN(span) || math.IsInf(span, 0) {
			return
		}
		loBase = math.Mod(loBase, 2)
		span = math.Mod(math.Abs(span), 2)
		d := int(dRaw%4) + 1
		n := int(nRaw)%64 + 1
		r := stats.NewRand(seed)
		centers := make([]window.Point, n)
		for i := range centers {
			p := make(window.Point, d)
			for j := range p {
				p[j] = r.Float64()
			}
			centers[i] = p
		}
		bw := make([]float64, d)
		for i := range bw {
			bw[i] = 1e-6 + r.Float64()*0.3
		}
		e, err := New(centers, bw, 100)
		if err != nil {
			t.Fatal(err)
		}
		lo := make([]float64, d)
		hi := make([]float64, d)
		for i := 0; i < d; i++ {
			lo[i] = loBase + r.Float64()*0.5
			hi[i] = lo[i] + span*r.Float64()
		}
		want := e.ProbBoxNaive(lo, hi)
		if got := e.ProbBox(lo, hi); got != want {
			t.Fatalf("d=%d n=%d prune=%d: pruned %v != naive %v for [%v,%v]",
				d, n, e.PruneDim(), got, want, lo, hi)
		}
		if got, wantCount := e.CountBox(lo, hi), want*e.WindowCount(); got != wantCount {
			t.Fatalf("count %v != naive-derived %v", got, wantCount)
		}
	})
}

// FuzzProbBox checks the analytic integrals never produce NaN or negative
// mass for any query geometry.
func FuzzProbBox(f *testing.F) {
	e, err := New([]window.Point{{0.1}, {0.4}, {0.9}}, []float64{0.07}, 1000)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(0.0, 1.0)
	f.Add(0.5, 0.5)
	f.Add(-3.0, 7.0)
	f.Fuzz(func(t *testing.T, lo, hi float64) {
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return
		}
		got := e.ProbBox([]float64{lo}, []float64{hi})
		if math.IsNaN(got) || got < -1e-12 || got > 1+1e-9 {
			t.Fatalf("ProbBox(%v,%v) = %v", lo, hi, got)
		}
		naive := e.ProbBoxNaive([]float64{lo}, []float64{hi})
		if math.Abs(got-naive) > 1e-9 {
			t.Fatalf("fast path diverges from naive: %v vs %v", got, naive)
		}
	})
}

// fuzzCursor doles out bytes from the fuzz input, reporting exhaustion.
type fuzzCursor struct {
	data []byte
	pos  int
}

func (c *fuzzCursor) next() (byte, bool) {
	if c.pos >= len(c.data) {
		return 0, false
	}
	b := c.data[c.pos]
	c.pos++
	return b, true
}

// FuzzIncrementalVsRebuild interprets the fuzz input as a maintenance
// history — cycles of slot writes/clears with per-cycle bandwidths and
// window counts — and demands that the maintained estimator stays
// bit-identical to a from-scratch build at every step, including across a
// marshal round trip (whose re-marshal must also be byte-identical).
func FuzzIncrementalVsRebuild(f *testing.F) {
	f.Add([]byte{2, 8, 1, 0x10, 0x40, 0x80, 5, 0x20, 0x60, 0xff, 0x01})
	f.Add([]byte{0, 3, 3, 7, 7, 7, 0, 0, 0, 9, 9, 9, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{1, 15, 2, 0xaa, 0x55, 0xaa, 0x55, 0x11, 0x22, 0x33, 0x44,
		0x55, 0x66, 0x77, 0x88, 0x99, 0xbb, 0xcc, 0xdd, 0xee})
	f.Add(bytes.Repeat([]byte{5, 0x80}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip("too short to describe a history")
		}
		cur := &fuzzCursor{data: data}
		b0, _ := cur.next()
		b1, _ := cur.next()
		dim := 1 + int(b0)%3
		maxSlots := 3 + int(b1)%13
		sim := newSlotSim(maxSlots, dim)
		// Query-point randomness only; the history itself is fully
		// determined by the input bytes.
		rng := rand.New(rand.NewSource(int64(len(data))))

		var m *Estimator
		for cycle := 0; ; cycle++ {
			nb, ok := cur.next()
			if !ok {
				break
			}
			if m != nil {
				m.BeginMaintain()
			}
			ops := 1 + int(nb)%4
			for i := 0; i < ops; i++ {
				sb, ok := cur.next()
				if !ok {
					break
				}
				s := int(sb) % maxSlots
				var p window.Point
				if sb%5 == 0 && sim.pts[s] != nil && sim.occupied() > 1 {
					p = nil // clear the slot
				} else {
					p = make(window.Point, dim)
					for d := range p {
						cb, _ := cur.next()
						p[d] = float64(cb) / 256
					}
				}
				sim.pts[s] = p
				if m != nil {
					m.SetSlot(s, p)
				}
			}
			if sim.occupied() == 0 {
				p := randPoint(rng, dim)
				sim.pts[0] = p
				if m != nil {
					m.SetSlot(0, p)
				}
			}
			bw := make([]float64, dim)
			for d := range bw {
				bb, _ := cur.next()
				bw[d] = 0.001 + 0.2*float64(bb)/255
			}
			wb, _ := cur.next()
			wc := 1 + 4*float64(wb)
			if m == nil {
				pts, slots := sim.liveSlots()
				var err error
				m, err = NewMaintained(pts, slots, maxSlots, bw, wc)
				if err != nil {
					t.Fatalf("cycle %d: NewMaintained: %v", cycle, err)
				}
			} else if err := m.FinishMaintain(bw, wc); err != nil {
				t.Fatalf("cycle %d: FinishMaintain: %v", cycle, err)
			}
			checkBitIdentical(t, m, sim.reference(t, bw, wc), rng, "fuzz cycle")

			blob, err := m.MarshalBinary()
			if err != nil {
				t.Fatalf("cycle %d: marshal: %v", cycle, err)
			}
			back, err := UnmarshalEstimator(blob, maxSlots)
			if err != nil {
				t.Fatalf("cycle %d: unmarshal: %v", cycle, err)
			}
			blob2, err := back.MarshalBinary()
			if err != nil {
				t.Fatalf("cycle %d: re-marshal: %v", cycle, err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatalf("cycle %d: re-marshal not byte-identical", cycle)
			}
			checkBitIdentical(t, back, m, rng, "fuzz round trip")
		}
	})
}
