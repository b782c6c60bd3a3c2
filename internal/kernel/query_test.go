package kernel

import (
	"testing"

	"odds/internal/stats"
	"odds/internal/window"
)

// testModel builds a d-dimensional model over n uniform centers with the
// given per-dimension bandwidth.
func testModel(t testing.TB, seed int64, d, n int, bw float64) *Estimator {
	t.Helper()
	r := stats.NewRand(seed)
	pts := make([]window.Point, n)
	for i := range pts {
		p := make(window.Point, d)
		for j := range p {
			p[j] = r.Float64()
		}
		pts[i] = p
	}
	bws := make([]float64, d)
	for i := range bws {
		bws[i] = bw
	}
	e, err := New(pts, bws, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestProb1DBoundaryCenters pins the edge semantics of the sorted run
// [lo-B, hi+B): a center exactly at lo-B enters the run (its mass is
// exactly zero, so including it changes nothing) and a center exactly at
// hi+B is excluded (its mass is also exactly zero). Either way the pruned
// answer must equal the full scan bit for bit.
func TestProb1DBoundaryCenters(t *testing.T) {
	const b = 0.05
	lo, hi := 0.4, 0.6
	centers := pts1(
		lo-b,   // exactly at the run's lower edge: zero mass, inside the run
		hi+b,   // exactly at the run's exclusive upper edge: zero mass, outside
		lo-b/2, // partial overlap from the left
		hi+b/2, // partial overlap from the right
		0.5,    // fully inside
		0.05,   // far outside
		0.95,   // far outside
	)
	e, err := New(centers, []float64{b}, 100)
	if err != nil {
		t.Fatal(err)
	}
	got := e.ProbBox([]float64{lo}, []float64{hi})
	want := e.ProbBoxNaive([]float64{lo}, []float64{hi})
	if got != want {
		t.Errorf("pruned %v != naive %v", got, want)
	}
	if m := intervalMass(lo-b, b, lo, hi); m != 0 {
		t.Errorf("center at lo-B has mass %v, want exactly 0", m)
	}
	if m := intervalMass(hi+b, b, lo, hi); m != 0 {
		t.Errorf("center at hi+B has mass %v, want exactly 0", m)
	}

	// A model containing only boundary centers carries exactly zero mass.
	eb, err := New(pts1(lo-b, hi+b), []float64{b}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := eb.ProbBox([]float64{lo}, []float64{hi}); got != 0 {
		t.Errorf("boundary-only model mass = %v, want exactly 0", got)
	}
	if got, want := eb.ProbBox([]float64{lo}, []float64{hi}), eb.ProbBoxNaive([]float64{lo}, []float64{hi}); got != want {
		t.Errorf("boundary-only pruned %v != naive %v", got, want)
	}
}

// TestProb1DQueryOutsideCenterRange covers queries whose box lies entirely
// outside the span of the centers, on either side and far off the domain.
func TestProb1DQueryOutsideCenterRange(t *testing.T) {
	e, err := New(pts1(0.4, 0.45, 0.5, 0.55, 0.6), []float64{0.02}, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]float64{
		{0.0, 0.1},  // entirely below every center
		{0.9, 1.0},  // entirely above every center
		{-5, -4},    // far below the domain
		{2, 3},      // far above the domain
		{0.0, 0.37}, // upper edge just below the first kernel's support
	} {
		got := e.ProbBox([]float64{q[0]}, []float64{q[1]})
		want := e.ProbBoxNaive([]float64{q[0]}, []float64{q[1]})
		if got != want {
			t.Errorf("query %v: pruned %v != naive %v", q, got, want)
		}
		if got != 0 {
			t.Errorf("query %v outside center range: mass %v, want exactly 0", q, got)
		}
	}
}

// TestPrunedMatchesNaiveMultiDim differentially pins the generic pruned
// scan to the executable specification across dimensions, sample sizes,
// and query geometries — bit-identical, not within tolerance.
func TestPrunedMatchesNaiveMultiDim(t *testing.T) {
	for _, d := range []int{1, 2, 3, 4} {
		for _, n := range []int{1, 7, 50, 500} {
			e := testModel(t, int64(10*d+n), d, n, 0.03)
			r := stats.NewRand(int64(99*d + n))
			lo := make([]float64, d)
			hi := make([]float64, d)
			for trial := 0; trial < 200; trial++ {
				for i := 0; i < d; i++ {
					lo[i] = r.Float64()*1.4 - 0.2
					hi[i] = lo[i] + r.Float64()*r.Float64() // bias toward selective boxes
					if trial%17 == 0 {
						hi[i] = lo[i] // degenerate box
					}
				}
				got := e.ProbBox(lo, hi)
				want := e.ProbBoxNaive(lo, hi)
				if got != want {
					t.Fatalf("d=%d n=%d box [%v,%v]: pruned %v != naive %v", d, n, lo, hi, got, want)
				}
			}
		}
	}
}

// TestPruneDimSelection checks the selectivity heuristic picks the
// smallest bandwidth-to-spread dimension and falls back to full scans
// when nothing is selective.
func TestPruneDimSelection(t *testing.T) {
	pts := []window.Point{{0.1, 0.2}, {0.5, 0.5}, {0.9, 0.8}}
	e, err := New(pts, []float64{0.5, 0.01}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if e.PruneDim() != 1 {
		t.Errorf("PruneDim = %d, want 1 (tightest bandwidth/spread)", e.PruneDim())
	}
	// Bandwidths wider than every spread: no pruning pays.
	e2, err := New(pts, []float64{2, 3}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if e2.PruneDim() != -1 {
		t.Errorf("PruneDim = %d, want -1 fallback", e2.PruneDim())
	}
	// Identical centers (zero spread everywhere) must also fall back.
	e3, err := New([]window.Point{{0.5}, {0.5}}, []float64{0.1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if e3.PruneDim() != -1 {
		t.Errorf("zero-spread PruneDim = %d, want -1", e3.PruneDim())
	}
	// Fallback answers still match the naive scan exactly.
	for _, m := range []*Estimator{e2, e3} {
		lo := make([]float64, m.Dim())
		hi := make([]float64, m.Dim())
		for i := range hi {
			lo[i], hi[i] = 0.3, 0.7
		}
		if got, want := m.ProbBox(lo, hi), m.ProbBoxNaive(lo, hi); got != want {
			t.Errorf("fallback pruned %v != naive %v", got, want)
		}
	}
}

// TestQuerierMatchesEstimator pins every Querier method bit-identical to
// the corresponding Estimator method.
func TestQuerierMatchesEstimator(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		e := testModel(t, int64(d), d, 120, 0.04)
		q := e.NewQuerier()
		r := stats.NewRand(int64(7 * d))
		p := make(window.Point, d)
		lo := make([]float64, d)
		hi := make([]float64, d)
		for trial := 0; trial < 100; trial++ {
			for i := 0; i < d; i++ {
				p[i] = r.Float64()
				lo[i] = r.Float64() * 0.8
				hi[i] = lo[i] + r.Float64()*0.3
			}
			rad := r.Float64() * 0.1
			if got, want := q.Prob(p, rad), e.Prob(p, rad); got != want {
				t.Fatalf("d=%d Prob: querier %v != estimator %v", d, got, want)
			}
			if got, want := q.Count(p, rad), e.Count(p, rad); got != want {
				t.Fatalf("d=%d Count: querier %v != estimator %v", d, got, want)
			}
			if got, want := q.ProbBox(lo, hi), e.ProbBox(lo, hi); got != want {
				t.Fatalf("d=%d ProbBox: querier %v != estimator %v", d, got, want)
			}
			if got, want := q.Density(p), e.Density(p); got != want {
				t.Fatalf("d=%d Density: querier %v != estimator %v", d, got, want)
			}
		}
	}
}

// TestBatchMatchesPerCall pins the batch entry points bit-identical to
// their per-call equivalents.
func TestBatchMatchesPerCall(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		e := testModel(t, int64(20+d), d, 80, 0.05)
		r := stats.NewRand(int64(31 * d))
		const k = 40
		ps := make([]window.Point, k)
		los := make([][]float64, k)
		his := make([][]float64, k)
		for i := range ps {
			p := make(window.Point, d)
			lo := make([]float64, d)
			hi := make([]float64, d)
			for j := 0; j < d; j++ {
				p[j] = r.Float64()
				lo[j] = r.Float64() * 0.9
				hi[j] = lo[j] + r.Float64()*0.2
			}
			ps[i], los[i], his[i] = p, lo, hi
		}

		counts := e.CountBatch(ps, 0.05, nil)
		boxCounts := e.CountBoxBatch(los, his, nil)
		dens := e.DensityBatch(ps, nil)
		if len(counts) != k || len(boxCounts) != k || len(dens) != k {
			t.Fatalf("d=%d batch lengths %d,%d,%d, want %d", d, len(counts), len(boxCounts), len(dens), k)
		}
		q := e.NewQuerier()
		qCounts := q.CountBatch(ps, 0.05, nil)
		qBoxCounts := q.CountBoxBatch(los, his, nil)
		for i := 0; i < k; i++ {
			if want := e.Count(ps[i], 0.05); counts[i] != want || qCounts[i] != want {
				t.Fatalf("d=%d CountBatch[%d] = %v/%v, want %v", d, i, counts[i], qCounts[i], want)
			}
			if want := e.CountBox(los[i], his[i]); boxCounts[i] != want || qBoxCounts[i] != want {
				t.Fatalf("d=%d CountBoxBatch[%d] = %v/%v, want %v", d, i, boxCounts[i], qBoxCounts[i], want)
			}
			if want := e.Density(ps[i]); dens[i] != want {
				t.Fatalf("d=%d DensityBatch[%d] = %v, want %v", d, i, dens[i], want)
			}
		}

		// Reusing a caller-owned out slice must not reallocate or change
		// answers.
		reused := e.CountBatch(ps, 0.05, counts)
		if &reused[0] != &counts[0] {
			t.Errorf("d=%d CountBatch reallocated a sufficient out slice", d)
		}
	}
}

// TestQuerierZeroAllocs is the acceptance gate for the allocation-free
// steady state: every Querier query path, the stack-boxed Estimator.Prob,
// and Density must run with zero allocations per call.
func TestQuerierZeroAllocs(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		e := testModel(t, int64(50+d), d, 500, 0.05)
		q := e.NewQuerier()
		p := make(window.Point, d)
		lo := make([]float64, d)
		hi := make([]float64, d)
		for i := 0; i < d; i++ {
			p[i] = 0.5
			lo[i], hi[i] = 0.45, 0.55
		}
		ps := []window.Point{p, p, p, p}
		out := make([]float64, 0, len(ps))
		cases := map[string]func(){
			"Querier.Prob":       func() { q.Prob(p, 0.02) },
			"Querier.Count":      func() { q.Count(p, 0.02) },
			"Querier.ProbBox":    func() { q.ProbBox(lo, hi) },
			"Querier.Density":    func() { q.Density(p) },
			"Querier.CountBatch": func() { out = q.CountBatch(ps, 0.02, out) },
			"Estimator.Prob":     func() { e.Prob(p, 0.02) },
			"Estimator.ProbBox":  func() { e.ProbBox(lo, hi) },
			"Estimator.Density":  func() { e.Density(p) },
		}
		for name, fn := range cases {
			if avg := testing.AllocsPerRun(100, fn); avg != 0 {
				t.Errorf("d=%d %s allocates %v per op, want 0", d, name, avg)
			}
		}
	}
}

// TestQuerierReset rebinds a handle across models of different
// dimensionality.
func TestQuerierReset(t *testing.T) {
	e1 := testModel(t, 1, 1, 50, 0.05)
	e3 := testModel(t, 3, 3, 50, 0.05)
	q := e1.NewQuerier()
	if q.Model() != e1 {
		t.Fatal("Model() does not report the bound estimator")
	}
	q.Reset(e3)
	if q.Model() != e3 {
		t.Fatal("Reset did not rebind")
	}
	p := window.Point{0.5, 0.5, 0.5}
	if got, want := q.Prob(p, 0.05), e3.Prob(p, 0.05); got != want {
		t.Errorf("after Reset: %v != %v", got, want)
	}
	// Shrinking rebind reuses the scratch.
	q.Reset(e1)
	if got, want := q.Prob(window.Point{0.5}, 0.05), e1.Prob(window.Point{0.5}, 0.05); got != want {
		t.Errorf("after shrink Reset: %v != %v", got, want)
	}
}

func TestQuerierDimMismatchPanics(t *testing.T) {
	e := testModel(t, 5, 2, 20, 0.05)
	q := e.NewQuerier()
	defer func() {
		if recover() == nil {
			t.Error("dim mismatch did not panic")
		}
	}()
	q.Prob(window.Point{0.5}, 0.05)
}

// TestQuerierConcurrentHandles backs the ownership rule: two goroutines
// holding separate handles over one shared model must be race-free
// (verified under go test -race) and produce identical results.
func TestQuerierConcurrentHandles(t *testing.T) {
	e := testModel(t, 77, 2, 300, 0.04)
	serial := e.NewQuerier()
	want := make([]float64, 500)
	for i := range want {
		x := float64(i%100) / 100
		p := window.Point{x, 1 - x}
		want[i] = serial.Count(p, 0.03) + serial.Density(p) + serial.Prob(p, 0.01)
	}
	done := make(chan bool, 2)
	for g := 0; g < 2; g++ {
		go func() {
			q := e.NewQuerier()
			ok := true
			for i := range want {
				x := float64(i%100) / 100
				p := window.Point{x, 1 - x}
				if got := q.Count(p, 0.03) + q.Density(p) + q.Prob(p, 0.01); got != want[i] {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 2; g++ {
		if !<-done {
			t.Error("concurrent querier diverged from serial results")
		}
	}
}

// TestMarshalRoundTripKeepsScanOrder guards the stable-sort idempotence
// the wire format relies on: decoding a marshaled model re-sorts an
// already-sorted center list, so a round trip must preserve answers and
// center order exactly.
func TestMarshalRoundTripKeepsScanOrder(t *testing.T) {
	e := testModel(t, 13, 2, 60, 0.03)
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	m, err := UnmarshalEstimator(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.PruneDim() != e.PruneDim() {
		t.Errorf("prune dim %d != %d after round trip", m.PruneDim(), e.PruneDim())
	}
	for j, p := range e.Centers() {
		for i := range p {
			if m.Centers()[j][i] != p[i] {
				t.Fatalf("center %d differs after round trip", j)
			}
		}
	}
	lo, hi := []float64{0.4, 0.4}, []float64{0.6, 0.6}
	if got, want := m.ProbBox(lo, hi), e.ProbBox(lo, hi); got != want {
		t.Errorf("round-trip ProbBox %v != %v", got, want)
	}
}
