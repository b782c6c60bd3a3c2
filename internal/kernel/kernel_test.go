package kernel

import (
	"math"
	"testing"
	"testing/quick"

	"odds/internal/stats"
	"odds/internal/window"
)

func pts1(xs ...float64) []window.Point {
	out := make([]window.Point, len(xs))
	for i, x := range xs {
		out[i] = window.Point{x}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, []float64{0.1}, 10); err != ErrNoSample {
		t.Errorf("empty sample err = %v, want ErrNoSample", err)
	}
	if _, err := New(pts1(0.5), []float64{0.1, 0.2}, 10); err == nil {
		t.Error("bandwidth/dim mismatch accepted")
	}
	if _, err := New([]window.Point{{0.5}, {0.1, 0.2}}, []float64{0.1}, 10); err == nil {
		t.Error("ragged centers accepted")
	}
	if _, err := New(pts1(0.5), []float64{0.1}, 0); err == nil {
		t.Error("zero window count accepted")
	}
	if _, err := New(pts1(0.5), []float64{0.1}, math.NaN()); err == nil {
		t.Error("NaN window count accepted")
	}
	if _, err := New([]window.Point{{}}, nil, 10); err == nil {
		t.Error("zero-dimensional centers accepted")
	}
}

func TestBandwidthsScottRule(t *testing.T) {
	// d=1, n=100: B = sqrt(5)*sigma*100^(-1/5)
	b := Bandwidths([]float64{0.1}, 100)
	want := math.Sqrt(5) * 0.1 * math.Pow(100, -0.2)
	if math.Abs(b[0]-want) > 1e-12 {
		t.Errorf("B = %v, want %v", b[0], want)
	}
	// Degenerate sigmas fall back to the minimum.
	for _, s := range []float64{0, -1, math.NaN()} {
		if got := Bandwidths([]float64{s}, 100)[0]; got != minBandwidth {
			t.Errorf("sigma=%v → B=%v, want minBandwidth", s, got)
		}
	}
	// d=2 uses exponent -1/6.
	b2 := Bandwidths([]float64{0.1, 0.2}, 64)
	want0 := math.Sqrt(5) * 0.1 * math.Pow(64, -1.0/6)
	if math.Abs(b2[0]-want0) > 1e-12 {
		t.Errorf("2-d B0 = %v, want %v", b2[0], want0)
	}
	if math.Abs(b2[1]/b2[0]-2) > 1e-9 {
		t.Error("bandwidth should scale linearly with sigma")
	}
}

func TestKernelIntegratesToOne(t *testing.T) {
	e, err := New(pts1(0.5), []float64{0.1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.ProbBox([]float64{0}, []float64{1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("total mass = %v, want 1", got)
	}
}

func TestDensityMatchesNumericalIntegral(t *testing.T) {
	e, err := New(pts1(0.3, 0.5, 0.52, 0.9), []float64{0.08}, 100)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 0.25, 0.6
	const n = 20000
	sum := 0.0
	h := (hi - lo) / n
	for i := 0; i < n; i++ {
		sum += e.Density(window.Point{lo + (float64(i)+0.5)*h}) * h
	}
	analytic := e.ProbBox([]float64{lo}, []float64{hi})
	if math.Abs(sum-analytic) > 1e-4 {
		t.Errorf("numeric %v vs analytic %v", sum, analytic)
	}
}

func TestDensityZeroOutsideSupport(t *testing.T) {
	e, _ := New(pts1(0.5), []float64{0.1}, 100)
	if got := e.Density(window.Point{0.7}); got != 0 {
		t.Errorf("density outside support = %v, want 0", got)
	}
	if got := e.Density(window.Point{0.5}); got <= 0 {
		t.Errorf("density at center = %v, want > 0", got)
	}
}

func TestDensityPeakValue(t *testing.T) {
	// Single kernel: f(center) = 0.75/B.
	e, _ := New(pts1(0.5), []float64{0.2}, 100)
	want := 0.75 / 0.2
	if got := e.Density(window.Point{0.5}); math.Abs(got-want) > 1e-12 {
		t.Errorf("peak density = %v, want %v", got, want)
	}
}

func TestProbSymmetricKernel(t *testing.T) {
	e, _ := New(pts1(0.5), []float64{0.1}, 100)
	left := e.ProbBox([]float64{0.4}, []float64{0.5})
	right := e.ProbBox([]float64{0.5}, []float64{0.6})
	if math.Abs(left-0.5) > 1e-12 || math.Abs(right-0.5) > 1e-12 {
		t.Errorf("halves = %v, %v, want 0.5 each", left, right)
	}
}

func TestCountScalesByWindow(t *testing.T) {
	e, _ := New(pts1(0.5), []float64{0.1}, 1000)
	n := e.Count(window.Point{0.5}, 0.1)
	if math.Abs(n-1000) > 1e-9 {
		t.Errorf("Count = %v, want 1000 (full mass)", n)
	}
}

func TestDegenerateBoxZero(t *testing.T) {
	e, _ := New(pts1(0.5), []float64{0.1}, 100)
	if got := e.ProbBox([]float64{0.6}, []float64{0.6}); got != 0 {
		t.Errorf("empty box mass = %v, want 0", got)
	}
	if got := e.ProbBox([]float64{0.7}, []float64{0.6}); got != 0 {
		t.Errorf("inverted box mass = %v, want 0", got)
	}
}

func TestFastPath1DMatchesNaive(t *testing.T) {
	r := stats.NewRand(17)
	centers := make([]window.Point, 200)
	for i := range centers {
		centers[i] = window.Point{r.Float64()}
	}
	e, err := New(centers, []float64{0.03}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	naive := func(lo, hi float64) float64 {
		sum := 0.0
		for _, c := range centers {
			sum += intervalMass(c[0], 0.03, lo, hi)
		}
		return sum / float64(len(centers))
	}
	for i := 0; i < 500; i++ {
		lo := r.Float64()
		hi := lo + r.Float64()*0.2
		want := naive(lo, hi)
		got := e.ProbBox([]float64{lo}, []float64{hi})
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("query [%v,%v]: fast %v, naive %v", lo, hi, got, want)
		}
	}
}

func TestProbBoxNaiveAgrees(t *testing.T) {
	r := stats.NewRand(53)
	centers := make([]window.Point, 150)
	for i := range centers {
		centers[i] = window.Point{r.Float64()}
	}
	e, err := New(centers, []float64{0.04}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		lo := r.Float64()
		hi := lo + r.Float64()*0.3
		a := e.ProbBox([]float64{lo}, []float64{hi})
		b := e.ProbBoxNaive([]float64{lo}, []float64{hi})
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("fast %v vs naive %v for [%v,%v]", a, b, lo, hi)
		}
	}
}

func TestMultiDimProductProperty(t *testing.T) {
	// For a single 2-d kernel, box mass factorizes into per-dim masses.
	e, err := New([]window.Point{{0.5, 0.5}}, []float64{0.1, 0.2}, 100)
	if err != nil {
		t.Fatal(err)
	}
	got := e.ProbBox([]float64{0.45, 0.4}, []float64{0.55, 0.6})
	want := intervalMass(0.5, 0.1, 0.45, 0.55) * intervalMass(0.5, 0.2, 0.4, 0.6)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("2-d mass = %v, want %v", got, want)
	}
}

func Test2DIntegratesToOne(t *testing.T) {
	r := stats.NewRand(23)
	centers := make([]window.Point, 50)
	for i := range centers {
		centers[i] = window.Point{0.3 + r.Float64()*0.4, 0.3 + r.Float64()*0.4}
	}
	e, err := New(centers, []float64{0.05, 0.07}, 100)
	if err != nil {
		t.Fatal(err)
	}
	got := e.ProbBox([]float64{0, 0}, []float64{1, 1})
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("total 2-d mass = %v, want 1", got)
	}
}

func TestFromSampleUsesScottRule(t *testing.T) {
	pts := pts1(0.1, 0.2, 0.3, 0.4)
	e, err := FromSample(pts, []float64{0.1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := Bandwidths([]float64{0.1}, 4)[0]
	if e.Bandwidth(0) != want {
		t.Errorf("Bandwidth = %v, want %v", e.Bandwidth(0), want)
	}
	if _, err := FromSample(nil, []float64{0.1}, 100); err != ErrNoSample {
		t.Error("empty FromSample should fail")
	}
	if _, err := FromSample(pts, []float64{0.1, 0.2}, 100); err == nil {
		t.Error("sigma/dim mismatch accepted")
	}
}

func TestAccessors(t *testing.T) {
	pts := pts1(0.1, 0.9)
	e, _ := New(pts, []float64{0.05}, 500)
	if e.Dim() != 1 || e.SampleSize() != 2 || e.WindowCount() != 500 {
		t.Errorf("accessors wrong: %d %d %v", e.Dim(), e.SampleSize(), e.WindowCount())
	}
	if len(e.Centers()) != 2 {
		t.Error("Centers length wrong")
	}
}

func TestCentersCopiedSliceHeader(t *testing.T) {
	pts := pts1(0.1, 0.9)
	e, _ := New(pts, []float64{0.05}, 500)
	pts[0] = window.Point{0.7} // replacing the slice entry must not affect the model
	if e.Centers()[0][0] != 0.1 {
		t.Error("estimator shares caller's slice header")
	}
}

func TestDensityDimMismatchPanics(t *testing.T) {
	e, _ := New(pts1(0.5), []float64{0.1}, 100)
	defer func() {
		if recover() == nil {
			t.Error("dim mismatch did not panic")
		}
	}()
	e.Density(window.Point{0.5, 0.5})
}

func TestProbBoxDimMismatchPanics(t *testing.T) {
	e, _ := New(pts1(0.5), []float64{0.1}, 100)
	defer func() {
		if recover() == nil {
			t.Error("dim mismatch did not panic")
		}
	}()
	e.ProbBox([]float64{0, 0}, []float64{1, 1})
}

func TestEstimatorApproximatesGaussian(t *testing.T) {
	// Sample from N(0.5, 0.05^2); the KDE's interval masses should be close
	// to the true Gaussian's.
	r := stats.NewRand(31)
	n := 2000
	centers := make([]window.Point, n)
	var m stats.Moments
	for i := range centers {
		x := stats.Clamp(0.5+r.NormFloat64()*0.05, 0, 1)
		centers[i] = window.Point{x}
		m.Add(x)
	}
	e, err := FromSample(centers, []float64{m.StdDev()}, float64(n))
	if err != nil {
		t.Fatal(err)
	}
	gauss := func(lo, hi float64) float64 {
		phi := func(x float64) float64 { return 0.5 * (1 + math.Erf((x-0.5)/(0.05*math.Sqrt2))) }
		return phi(hi) - phi(lo)
	}
	for _, q := range [][2]float64{{0.45, 0.55}, {0.4, 0.6}, {0.5, 0.52}, {0.3, 0.45}} {
		got := e.ProbBox([]float64{q[0]}, []float64{q[1]})
		want := gauss(q[0], q[1])
		if math.Abs(got-want) > 0.03 {
			t.Errorf("interval %v: KDE %v vs Gaussian %v", q, got, want)
		}
	}
}

// Property: box probability is monotone in box inclusion and within [0,1].
func TestProbMonotoneProperty(t *testing.T) {
	r := stats.NewRand(37)
	centers := make([]window.Point, 60)
	for i := range centers {
		centers[i] = window.Point{r.Float64()}
	}
	e, err := New(centers, []float64{0.05}, 100)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw, growRaw uint16) bool {
		a := float64(aRaw) / 65535
		b := float64(bRaw) / 65535
		if a > b {
			a, b = b, a
		}
		grow := float64(growRaw) / 65535 * 0.3
		inner := e.ProbBox([]float64{a}, []float64{b})
		outer := e.ProbBox([]float64{a - grow}, []float64{b + grow})
		return inner >= 0 && outer <= 1+1e-12 && outer >= inner-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: disjoint adjacent intervals have additive mass.
func TestProbAdditiveProperty(t *testing.T) {
	r := stats.NewRand(41)
	centers := make([]window.Point, 40)
	for i := range centers {
		centers[i] = window.Point{r.Float64()}
	}
	e, _ := New(centers, []float64{0.07}, 100)
	f := func(aRaw, bRaw, cRaw uint16) bool {
		xs := []float64{float64(aRaw) / 65535, float64(bRaw) / 65535, float64(cRaw) / 65535}
		a, b, c := xs[0], xs[1], xs[2]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b, c = c, b
		}
		if a > b {
			a, b = b, a
		}
		whole := e.ProbBox([]float64{a}, []float64{c})
		split := e.ProbBox([]float64{a}, []float64{b}) + e.ProbBox([]float64{b}, []float64{c})
		return math.Abs(whole-split) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestBandwidthsInfiniteSigmaClamped is the regression test for the +Inf
// guard: an overflowed variance sketch can hand Scott's rule an infinite
// σ, and +Inf passed the old `IsNaN(b) || b < minBandwidth` check —
// producing an infinite bandwidth whose kernels place zero mass
// everywhere.
func TestBandwidthsInfiniteSigmaClamped(t *testing.T) {
	for _, sigma := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), -1, 0} {
		bw := Bandwidths([]float64{sigma, 0.1}, 100)
		if bw[0] != minBandwidth {
			t.Errorf("sigma=%v: bandwidth = %v, want minBandwidth clamp", sigma, bw[0])
		}
		if !(bw[1] > 0) || math.IsInf(bw[1], 0) {
			t.Errorf("finite sigma corrupted: %v", bw[1])
		}
	}
}

func TestNewClampsNonFiniteBandwidth(t *testing.T) {
	e, err := New(pts1(0.5), []float64{math.Inf(1)}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if e.Bandwidth(0) != minBandwidth {
		t.Errorf("bandwidth = %v, want minBandwidth", e.Bandwidth(0))
	}
	// Queries must stay usable: the clamped kernel is a point mass, so a
	// box around the center carries all the mass.
	if p := e.Prob(window.Point{0.5}, 0.01); math.Abs(p-1) > 1e-9 {
		t.Errorf("prob around center = %v, want 1", p)
	}
	if _, err := New(pts1(0.5), []float64{0.1}, math.Inf(1)); err == nil {
		t.Error("infinite window count accepted")
	}
}

// TestEstimatorConcurrentQueries backs the concurrency contract in the
// package documentation: queries from many goroutines between patches
// must be race-free (verified under go test -race).
func TestEstimatorConcurrentQueries(t *testing.T) {
	rng := stats.NewRand(3)
	var centers []window.Point
	for i := 0; i < 500; i++ {
		centers = append(centers, window.Point{rng.Float64()})
	}
	e, err := FromSample(centers, []float64{0.1}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan float64, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			sum := 0.0
			for i := 0; i < 2000; i++ {
				x := float64(i%100) / 100
				sum += e.Count(window.Point{x}, 0.05) + e.Density(window.Point{x})
			}
			done <- sum
		}(g)
	}
	first := <-done
	for g := 1; g < 8; g++ {
		if got := <-done; got != first {
			t.Errorf("goroutine results diverged: %v vs %v", got, first)
		}
	}
}
