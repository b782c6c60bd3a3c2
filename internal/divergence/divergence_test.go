package divergence

import (
	"math"
	"testing"

	"odds/internal/histogram"
	"odds/internal/kernel"
	"odds/internal/stats"
	"odds/internal/window"
)

func kde1(t *testing.T, centers []float64, bw float64) *kernel.Estimator {
	t.Helper()
	pts := make([]window.Point, len(centers))
	for i, c := range centers {
		pts[i] = window.Point{c}
	}
	e, err := kernel.New(pts, []float64{bw}, float64(len(centers)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestJSIdenticalModelsZero(t *testing.T) {
	e := kde1(t, []float64{0.3, 0.5, 0.7}, 0.05)
	if got := JS(e, e, 64); got != 0 {
		t.Errorf("JS(p,p) = %v, want 0", got)
	}
}

func TestJSBounds(t *testing.T) {
	// Completely disjoint distributions approach JS = 1 (base-2).
	a := kde1(t, []float64{0.1, 0.12, 0.14}, 0.01)
	b := kde1(t, []float64{0.9, 0.92, 0.94}, 0.01)
	got := JS(a, b, 128)
	if got < 0.99 || got > 1.000001 {
		t.Errorf("JS of disjoint models = %v, want ≈1", got)
	}
}

func TestJSSymmetric(t *testing.T) {
	a := kde1(t, []float64{0.3, 0.4}, 0.05)
	b := kde1(t, []float64{0.5, 0.6}, 0.05)
	d1, d2 := JS(a, b, 64), JS(b, a, 64)
	if math.Abs(d1-d2) > 1e-12 {
		t.Errorf("JS not symmetric: %v vs %v", d1, d2)
	}
}

func TestJSNonNegativeAndMonotoneInSeparation(t *testing.T) {
	base := kde1(t, []float64{0.3}, 0.05)
	prev := -1.0
	for _, mu := range []float64{0.3, 0.35, 0.45, 0.6, 0.8} {
		other := kde1(t, []float64{mu}, 0.05)
		d := JS(base, other, 128)
		if d < 0 {
			t.Fatalf("JS negative: %v", d)
		}
		if d < prev-1e-9 {
			t.Errorf("JS not monotone in separation at mu=%v: %v < %v", mu, d, prev)
		}
		prev = d
	}
}

func TestJSGaussianVsShiftedGaussian(t *testing.T) {
	// The Figure 6 setting: N(0.3,0.05) vs N(0.5,0.05) should be strongly
	// separated; N(0.3,0.05) vs N(0.305,0.05) nearly identical.
	a := Gaussian1D(0.3, 0.05)
	far := Gaussian1D(0.5, 0.05)
	near := Gaussian1D(0.305, 0.05)
	if d := JS(a, far, 256); d < 0.5 {
		t.Errorf("far JS = %v, want > 0.5", d)
	}
	if d := JS(a, near, 256); d > 0.01 {
		t.Errorf("near JS = %v, want < 0.01", d)
	}
}

func TestJSKDEApproximatesTruth(t *testing.T) {
	// A KDE over a large Gaussian sample should be very close to the
	// analytic Gaussian — this is exactly the paper's Figure 6 claim
	// (distance ≤ ~0.004 under a stable distribution).
	r := stats.NewRand(6)
	n := 1024
	var m stats.Moments
	pts := make([]window.Point, n)
	for i := range pts {
		x := stats.Clamp(0.3+r.NormFloat64()*0.05, 0, 1)
		pts[i] = window.Point{x}
		m.Add(x)
	}
	e, err := kernel.FromSample(pts, []float64{m.StdDev()}, float64(n))
	if err != nil {
		t.Fatal(err)
	}
	d := JS(e, Gaussian1D(0.3, 0.05), 100)
	if d > 0.02 {
		t.Errorf("JS(KDE, truth) = %v, want < 0.02", d)
	}
}

func TestJSWorksAcrossModelKinds(t *testing.T) {
	r := stats.NewRand(7)
	vals := make([]float64, 2000)
	pts := make([]window.Point, len(vals))
	var m stats.Moments
	for i := range vals {
		vals[i] = stats.Clamp(0.5+r.NormFloat64()*0.1, 0, 1)
		pts[i] = window.Point{vals[i]}
		m.Add(vals[i])
	}
	kde, err := kernel.FromSample(pts, []float64{m.StdDev()}, float64(len(pts)))
	if err != nil {
		t.Fatal(err)
	}
	hist, err := histogram.NewEquiDepth(vals, 64, float64(len(vals)))
	if err != nil {
		t.Fatal(err)
	}
	d := JS(kde, hist, 100)
	if d > 0.05 {
		t.Errorf("JS(KDE, histogram of same data) = %v, want small", d)
	}
}

func TestJS2D(t *testing.T) {
	mk := func(cx, cy float64) *kernel.Estimator {
		var pts []window.Point
		r := stats.NewRand(int64(cx*1000 + cy))
		for i := 0; i < 100; i++ {
			pts = append(pts, window.Point{
				stats.Clamp(cx+r.NormFloat64()*0.05, 0, 1),
				stats.Clamp(cy+r.NormFloat64()*0.05, 0, 1),
			})
		}
		e, err := kernel.FromSample(pts, []float64{0.05, 0.05}, 100)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	same := JS(mk(0.3, 0.3), mk(0.3, 0.3), 24)
	far := JS(mk(0.3, 0.3), mk(0.8, 0.8), 24)
	if same > 0.1 {
		t.Errorf("JS of similar 2-d models = %v, want small", same)
	}
	if far < 0.8 {
		t.Errorf("JS of distant 2-d models = %v, want ≈1", far)
	}
}

func TestJSPanics(t *testing.T) {
	a := Gaussian1D(0.5, 0.1)
	b := FuncModel{Dims: 2, Fn: func(lo, hi []float64) float64 { return 0 }}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("dim mismatch did not panic")
			}
		}()
		JS(a, b, 10)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("gridPoints=0 did not panic")
			}
		}()
		JS(a, a, 0)
	}()
}

func TestMixture1DMassAndShape(t *testing.T) {
	m := Mixture1D(
		[]float64{0.3, 0.35, 0.45},
		[]float64{0.03, 0.03, 0.03},
		[]float64{0.995 / 3, 0.995 / 3, 0.995 / 3},
		0.5, 1, 0.005,
	)
	total := m.Fn([]float64{-1}, []float64{2})
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("mixture total mass = %v, want 1", total)
	}
	core := m.Fn([]float64{0.2}, []float64{0.55})
	if core < 0.99 {
		t.Errorf("core mass = %v, want ≈0.995", core)
	}
	noise := m.Fn([]float64{0.6}, []float64{1.0})
	if noise <= 0 || noise > 0.01 {
		t.Errorf("noise-region mass = %v, want ≈0.004", noise)
	}
}

func TestMixture1DPanicsOnRaggedParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged mixture params did not panic")
		}
	}()
	Mixture1D([]float64{0.3}, []float64{0.03, 0.04}, []float64{1}, 0, 0, 0)
}

func TestGaussian1DDegenerateInterval(t *testing.T) {
	g := Gaussian1D(0.5, 0.1)
	if got := g.Fn([]float64{0.5}, []float64{0.5}); got != 0 {
		t.Errorf("degenerate interval mass = %v, want 0", got)
	}
}
