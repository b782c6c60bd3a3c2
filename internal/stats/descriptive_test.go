package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestDescribeEmpty(t *testing.T) {
	if _, err := Describe(nil); err != ErrEmpty {
		t.Fatalf("Describe(nil) err = %v, want ErrEmpty", err)
	}
}

func TestDescribeSingle(t *testing.T) {
	s, err := Describe([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1 || s.Min != 3.5 || s.Max != 3.5 || s.Mean != 3.5 || s.Median != 3.5 {
		t.Errorf("unexpected summary %+v", s)
	}
	if s.StdDev != 0 {
		t.Errorf("StdDev = %v, want 0", s.StdDev)
	}
}

func TestDescribeKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s, err := Describe(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if !almostEq(s.StdDev, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min,Max = %v,%v want 2,9", s.Min, s.Max)
	}
	if !almostEq(s.Median, 4.5, 1e-12) {
		t.Errorf("Median = %v, want 4.5", s.Median)
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	Median(xs)
	want := []float64{5, 1, 4, 2, 3}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("input mutated: %v", xs)
		}
	}
}

func TestQuantileBounds(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q=0: %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Errorf("q=1: %v, want 4", got)
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("out-of-range q should be NaN")
	}
	if !math.IsNaN(Quantile(xs, math.NaN())) {
		t.Error("NaN q should be NaN")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.25); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("q=.25: %v, want 2.5", got)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, aq, bq uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa := float64(aq) / 255
		qb := float64(bq) / 255
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMomentsMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs := make([]float64, 500)
	var m Moments
	for i := range xs {
		xs[i] = r.NormFloat64()*2 + 3
		m.Add(xs[i])
	}
	mean, sd := batchMeanStd(xs)
	if !almostEq(m.Mean(), mean, 1e-9) {
		t.Errorf("Mean = %v, want %v", m.Mean(), mean)
	}
	if !almostEq(m.StdDev(), sd, 1e-9) {
		t.Errorf("StdDev = %v, want %v", m.StdDev(), sd)
	}
}

func batchMeanStd(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	v /= float64(len(xs))
	return mean, math.Sqrt(v)
}

func TestMomentsEmpty(t *testing.T) {
	var m Moments
	if !math.IsNaN(m.Mean()) || !math.IsNaN(m.Variance()) || !math.IsNaN(m.StdDev()) || !math.IsNaN(m.Skew()) {
		t.Error("empty moments should report NaN")
	}
	if !math.IsNaN(m.SampleVariance()) {
		t.Error("SampleVariance of empty should be NaN")
	}
}

func TestMomentsSampleVariance(t *testing.T) {
	var m Moments
	for _, x := range []float64{1, 2, 3, 4} {
		m.Add(x)
	}
	// population variance 1.25, sample variance 5/3.
	if !almostEq(m.Variance(), 1.25, 1e-12) {
		t.Errorf("Variance = %v, want 1.25", m.Variance())
	}
	if !almostEq(m.SampleVariance(), 5.0/3.0, 1e-12) {
		t.Errorf("SampleVariance = %v, want 5/3", m.SampleVariance())
	}
}

func TestMomentsSkewSign(t *testing.T) {
	var left, right, sym Moments
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		left.Add(-r.ExpFloat64())
		right.Add(r.ExpFloat64())
		sym.Add(r.NormFloat64())
	}
	if left.Skew() >= 0 {
		t.Errorf("left skew = %v, want negative", left.Skew())
	}
	if right.Skew() <= 0 {
		t.Errorf("right skew = %v, want positive", right.Skew())
	}
	if math.Abs(sym.Skew()) > 0.1 {
		t.Errorf("symmetric skew = %v, want ~0", sym.Skew())
	}
}

func TestMomentsSkewConstant(t *testing.T) {
	var m Moments
	m.Add(2)
	m.Add(2)
	if m.Skew() != 0 {
		t.Errorf("constant skew = %v, want 0", m.Skew())
	}
}

func TestQuantileSortedAgrees(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = r.Float64()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 1} {
		if a, b := Quantile(xs, q), QuantileSorted(sorted, q); !almostEq(a, b, 1e-12) {
			t.Errorf("q=%v: Quantile=%v QuantileSorted=%v", q, a, b)
		}
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{0.5, 0, 1, 0.5},
		{-1, 0, 1, 0},
		{2, 0, 1, 1},
		{0, 0, 1, 0},
		{1, 0, 1, 1},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestSplitRandIndependentButDeterministic(t *testing.T) {
	p1, p2 := NewRand(1), NewRand(1)
	c1, c2 := SplitRand(p1), SplitRand(p2)
	for i := 0; i < 10; i++ {
		if c1.Int63() != c2.Int63() {
			t.Fatal("split from identical parents differed")
		}
	}
	// Parent and child streams should not be identical.
	p := NewRand(1)
	c := SplitRand(NewRand(1))
	same := true
	for i := 0; i < 10; i++ {
		if p.Int63() != c.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Error("child stream identical to parent stream")
	}
}
