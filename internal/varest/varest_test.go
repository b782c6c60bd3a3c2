package varest

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"odds/internal/stats"
)

// exactWindow computes the true windowed mean/variance for reference.
type exactWindow struct {
	buf []float64
	cap int
}

func (w *exactWindow) push(x float64) {
	w.buf = append(w.buf, x)
	if len(w.buf) > w.cap {
		w.buf = w.buf[1:]
	}
}

func (w *exactWindow) meanVar() (float64, float64) {
	var m stats.Moments
	for _, x := range w.buf {
		m.Add(x)
	}
	return m.Mean(), m.Variance()
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"wcap=0":  func() { New(0, 0.2) },
		"eps=0":   func() { New(10, 0) },
		"eps>1":   func() { New(10, 1.5) },
		"eps neg": func() { New(10, -0.2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEmptyEstimator(t *testing.T) {
	e := New(10, 0.2)
	if !math.IsNaN(e.Mean()) || !math.IsNaN(e.Variance()) || !math.IsNaN(e.StdDev()) {
		t.Error("empty estimator should report NaN")
	}
	if e.Count() != 0 || e.Buckets() != 0 {
		t.Error("empty estimator state wrong")
	}
}

func TestExactBeforeAnyMergePressure(t *testing.T) {
	e := New(100, 0.2)
	vals := []float64{1, 2, 3, 4, 5}
	w := &exactWindow{cap: 100}
	for _, x := range vals {
		e.Push(x)
		w.push(x)
	}
	mu, v := w.meanVar()
	if math.Abs(e.Mean()-mu) > 1e-9 {
		t.Errorf("Mean = %v, want %v", e.Mean(), mu)
	}
	if math.Abs(e.Variance()-v) > 1e-9*v+1e-12 {
		t.Errorf("Variance = %v, want %v", e.Variance(), v)
	}
}

// scheduled returns a sketch that compacts on every every-th arrival
// whatever its window: maxEvery puts a window small enough for the exact
// oracle (O(|W|) per check) on the schedule production windows of 8192 and
// up run, and 1 is the per-arrival pass the sketch ran before compaction
// was scheduled — the reference the deferred schedules are compared to.
func scheduled(wcap int, eps float64, every uint64) *Estimator {
	e := New(wcap, eps)
	e.every = every
	return e
}

func TestCompactionPeriodFollowsWindow(t *testing.T) {
	for wcap, want := range map[int]uint64{1: 1, 400: 1, 1023: 1, 1024: 2, 2000: 3, 8191: 15, 8192: 16, 10000: 16, 1 << 20: 16} {
		if got := New(wcap, 0.2).every; got != want {
			t.Errorf("|W|=%d compacts every %d arrivals, want %d", wcap, got, want)
		}
	}
}

func TestConstantStreamCompressesFully(t *testing.T) {
	e := scheduled(1000, 0.2, maxEvery)
	for i := 1; i <= 5000; i++ {
		e.Push(7.5)
		// A compaction arrival leaves the fully merged list; between two,
		// only the singletons pushed since ride on top of it.
		if limit := 3 + i%maxEvery; e.Buckets() > limit {
			t.Fatalf("arrival %d: constant stream uses %d buckets, want ≤%d", i, e.Buckets(), limit)
		}
	}
	if e.Variance() != 0 {
		t.Errorf("Variance = %v, want 0", e.Variance())
	}
	if math.Abs(e.Mean()-7.5) > 1e-12 {
		t.Errorf("Mean = %v, want 7.5", e.Mean())
	}
}

// testStream is the fuzz target's four regimes: drifting Gaussian,
// uniform, alternating far-apart levels, constant.
func testStream(mode, i int, r *rand.Rand) float64 {
	switch mode {
	case 0:
		return r.NormFloat64()*2 + 10 + float64(i)/100
	case 1:
		return r.Float64()
	case 2:
		return float64(i%2) * 1000
	}
	return 0.42
}

// TestScheduledCompactionMatchesPerPush runs the sketch beside the
// per-push reference and the exact window: while the window fills both
// are lossless and must agree to float precision; afterwards each must be
// within eps of exact. Deferring the pass must cost no more than the
// singletons it has not merged yet — on average (maxEvery-1)/2 — over
// the reference's bucket count. That is asserted on the run's mean, not
// per arrival: merges are irreversible, so the two lists cut their
// boundaries at different arrivals and their counts cross by up to
// 2·maxEvery either way.
func TestScheduledCompactionMatchesPerPush(t *testing.T) {
	for _, wcap := range []int{64, 257, 1000} {
		for _, eps := range []float64{0.1, 0.2, 0.5} {
			for mode := 0; mode < 4; mode++ {
				e, ref := scheduled(wcap, eps, maxEvery), scheduled(wcap, eps, 1)
				w := &exactWindow{cap: wcap}
				r := stats.NewRand(int64(wcap + mode))
				steps, sum, refSum := 4*wcap, 0, 0
				for i := 0; i < steps; i++ {
					x := testStream(mode, i, r)
					e.Push(x)
					ref.Push(x)
					w.push(x)
					sum += e.Buckets()
					refSum += ref.Buckets()
					if e.Buckets() > e.hardCap {
						t.Fatalf("w=%d eps=%v mode=%d step %d: %d buckets exceed the cap %d", wcap, eps, mode, i, e.Buckets(), e.hardCap)
					}
					if i >= wcap && i%7 != 0 {
						continue // the exact variance is O(|W|) per check
					}
					_, exact := w.meanVar()
					float := 1e-7 * math.Max(exact, 1e-12)
					got, want := e.Variance(), ref.Variance()
					if i < wcap {
						if math.Abs(got-want) > float || math.Abs(got-exact) > float {
							t.Fatalf("w=%d eps=%v mode=%d step %d (filling): variance %v, reference %v, exact %v", wcap, eps, mode, i, got, want, exact)
						}
					} else if tol := eps*exact + float; math.Abs(got-exact) > tol || math.Abs(want-exact) > tol {
						t.Fatalf("w=%d eps=%v mode=%d step %d: variance %v, reference %v, exact %v ± %v", wcap, eps, mode, i, got, want, exact, tol)
					}
				}
				// The inexact constant is a roundoff regime: a run of equal
				// values merges only when its rounded V comes out exactly 0,
				// which depends on the grouping, not on the rule.
				// TestConstantStreamCompressesFully pins the exact case.
				if mode == 3 {
					continue
				}
				if extra := float64(sum-refSum) / float64(steps); extra > maxEvery/2+2 {
					t.Errorf("w=%d eps=%v mode=%d: %.1f buckets above the reference on average, want ≤ %d", wcap, eps, mode, extra, maxEvery/2+2)
				}
			}
		}
	}
}

func TestPushDoesNotAllocateInSteadyState(t *testing.T) {
	const wcap = 1000
	e := scheduled(wcap, 0.2, maxEvery)
	r := stats.NewRand(17)
	for i := 0; i < 3*wcap; i++ {
		e.Push(r.NormFloat64())
	}
	if a := testing.AllocsPerRun(20*maxEvery, func() { e.Push(r.NormFloat64()) }); a != 0 {
		t.Errorf("Push allocates %v times per arrival in steady state, want 0", a)
	}
}

// Reads must be pure: the serving path reads sigma between arrivals and a
// restored twin that never read it must hold the same bucket list.
func TestReadsDoNotMutate(t *testing.T) {
	e, quiet := scheduled(300, 0.2, maxEvery), scheduled(300, 0.2, maxEvery)
	r := stats.NewRand(23)
	for i := 0; i < 1000; i++ {
		x := r.NormFloat64()
		e.Push(x)
		quiet.Push(x)
		e.Variance()
		e.Mean()
		e.StdDev()
	}
	if !slices.Equal(e.buckets, quiet.buckets) {
		t.Error("reading the sketch changed its bucket list")
	}
}

func TestCountExact(t *testing.T) {
	e := New(50, 0.2)
	for i := 1; i <= 120; i++ {
		e.Push(float64(i))
		want := i
		if want > 50 {
			want = 50
		}
		if e.Count() != want {
			t.Fatalf("after %d pushes Count = %d, want %d", i, e.Count(), want)
		}
	}
}

func TestVarianceWithinEps(t *testing.T) {
	const wcap = 1000
	for _, eps := range []float64{0.1, 0.2, 0.5} {
		e := New(wcap, eps)
		w := &exactWindow{cap: wcap}
		r := stats.NewRand(42)
		maxRel := 0.0
		for i := 0; i < 12000; i++ {
			x := r.NormFloat64()*2 + 10
			e.Push(x)
			w.push(x)
			if i > wcap && i%97 == 0 {
				_, trueV := w.meanVar()
				rel := math.Abs(e.Variance()-trueV) / trueV
				if rel > maxRel {
					maxRel = rel
				}
			}
		}
		if maxRel > eps {
			t.Errorf("eps=%v: max relative variance error %v exceeds eps", eps, maxRel)
		}
	}
}

func TestVarianceTracksDistributionShift(t *testing.T) {
	const wcap = 512
	e := New(wcap, 0.2)
	w := &exactWindow{cap: wcap}
	r := stats.NewRand(7)
	for i := 0; i < 4000; i++ {
		var x float64
		if i < 2000 {
			x = r.NormFloat64() * 0.5
		} else {
			x = 100 + r.NormFloat64()*5
		}
		e.Push(x)
		w.push(x)
	}
	_, trueV := w.meanVar()
	rel := math.Abs(e.Variance()-trueV) / trueV
	if rel > 0.25 {
		t.Errorf("post-shift relative error %v too large", rel)
	}
}

func TestStdDevIsSqrtVariance(t *testing.T) {
	e := New(100, 0.2)
	r := stats.NewRand(3)
	for i := 0; i < 500; i++ {
		e.Push(r.Float64())
	}
	if math.Abs(e.StdDev()-math.Sqrt(e.Variance())) > 1e-12 {
		t.Error("StdDev != sqrt(Variance)")
	}
}

func TestBucketCountLogarithmic(t *testing.T) {
	e := New(10000, 0.2)
	r := stats.NewRand(5)
	maxB := 0
	for i := 0; i < 60000; i++ {
		e.Push(r.NormFloat64())
		if e.Buckets() > maxB {
			maxB = e.Buckets()
		}
	}
	if maxB > e.hardCap {
		t.Errorf("bucket count %d exceeded hard cap %d", maxB, e.hardCap)
	}
	// The Section 10.3 observation: actual usage is well below the bound.
	if 4*maxB > e.BoundNumbers() {
		t.Errorf("memory numbers %d exceed bound %d", 4*maxB, e.BoundNumbers())
	}
}

func TestMemoryAccounting(t *testing.T) {
	e := New(100, 0.2)
	for i := 0; i < 300; i++ {
		e.Push(float64(i % 17))
	}
	if e.MemoryNumbers() != 4*e.Buckets() {
		t.Errorf("MemoryNumbers = %d, want %d", e.MemoryNumbers(), 4*e.Buckets())
	}
	if e.MemoryBytes() != 2*e.MemoryNumbers() {
		t.Errorf("MemoryBytes = %d, want %d", e.MemoryBytes(), 2*e.MemoryNumbers())
	}
}

func TestAccessors(t *testing.T) {
	e := New(64, 0.25)
	if e.WindowCap() != 64 || e.Eps() != 0.25 {
		t.Errorf("accessors wrong: %d %v", e.WindowCap(), e.Eps())
	}
	e.Push(1)
	if e.Seen() != 1 {
		t.Errorf("Seen = %d, want 1", e.Seen())
	}
}

func TestMergeParallelAxis(t *testing.T) {
	// Two buckets: {1,2} and {3,4,5}. Combined variance of {1..5} is 2.
	a := bucket{first: 1, last: 2, mean: 1.5, v: 0.5}
	b := bucket{first: 3, last: 5, mean: 4, v: 2}
	m := merge(a, b)
	if m.n() != 5 {
		t.Fatalf("merged n = %d, want 5", m.n())
	}
	if math.Abs(m.mean-3) > 1e-12 {
		t.Errorf("merged mean = %v, want 3", m.mean)
	}
	if math.Abs(m.v-10) > 1e-12 { // population var 2 → V = 10
		t.Errorf("merged V = %v, want 10", m.v)
	}
}

// Property: the mean estimate is always within the min/max of recent data,
// and variance is never negative.
func TestEstimatesSaneProperty(t *testing.T) {
	f := func(raw []float64, capRaw uint8, seed int64) bool {
		wcap := int(capRaw%64) + 2
		e := New(wcap, 0.2)
		vals := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				vals = append(vals, x)
			}
		}
		if len(vals) == 0 {
			return true
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range vals {
			e.Push(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if e.Variance() < 0 {
			return false
		}
		return e.Mean() >= lo-1e-9 && e.Mean() <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMultiBasics(t *testing.T) {
	m := NewMulti(2, 100, 0.2)
	if m.Dim() != 2 {
		t.Fatalf("Dim = %d", m.Dim())
	}
	r := stats.NewRand(11)
	var mx, my stats.Moments
	for i := 0; i < 100; i++ {
		x, y := r.Float64(), r.Float64()*10
		m.Push([]float64{x, y})
		mx.Add(x)
		my.Add(y)
	}
	sds := m.StdDevs()
	if math.Abs(sds[0]-mx.StdDev()) > 0.1*mx.StdDev() {
		t.Errorf("dim0 sd = %v, want ~%v", sds[0], mx.StdDev())
	}
	if math.Abs(sds[1]-my.StdDev()) > 0.1*my.StdDev() {
		t.Errorf("dim1 sd = %v, want ~%v", sds[1], my.StdDev())
	}
	means := m.Means()
	if math.Abs(means[0]-mx.Mean()) > 0.05 || math.Abs(means[1]-my.Mean()) > 0.5 {
		t.Errorf("means = %v", means)
	}
	if m.MemoryNumbers() <= 0 || m.MemoryBytes() != 2*m.MemoryNumbers() {
		t.Error("memory accounting wrong")
	}
	if m.BoundNumbers() <= m.MemoryNumbers() {
		t.Error("bound should exceed actual usage on smooth data")
	}
}

func TestMultiPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewMulti(0,...) did not panic")
			}
		}()
		NewMulti(0, 10, 0.2)
	}()
	m := NewMulti(2, 10, 0.2)
	defer func() {
		if recover() == nil {
			t.Error("dim mismatch did not panic")
		}
	}()
	m.Push([]float64{1})
}
