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
	e, err := New(testPoints(seed, d, n), testBandwidths(d, bw), 1000)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// testMaintainedModel is testModel's maintained counterpart: the same
// centers in slots 0..n-1 of a 2n-slot model, after one patch cycle that
// empties every third slot, so its queries also skip tombstones.
func testMaintainedModel(t testing.TB, seed int64, d, n int, bw float64) *Estimator {
	t.Helper()
	pts := testPoints(seed, d, n)
	slots := make([]int, n)
	for i := range slots {
		slots[i] = i
	}
	bws := testBandwidths(d, bw)
	e, err := NewMaintained(pts, slots, 2*n, bws, 1000)
	if err != nil {
		t.Fatal(err)
	}
	e.BeginMaintain()
	for s := 0; s < n-1; s += 3 {
		e.SetSlot(s, nil)
	}
	if err := e.FinishMaintain(bws, 1000); err != nil {
		t.Fatal(err)
	}
	return e
}

func testPoints(seed int64, d, n int) []window.Point {
	r := stats.NewRand(seed)
	pts := make([]window.Point, n)
	for i := range pts {
		p := make(window.Point, d)
		for j := range p {
			p[j] = r.Float64()
		}
		pts[i] = p
	}
	return pts
}

func testBandwidths(d int, bw float64) []float64 {
	bws := make([]float64, d)
	for i := range bws {
		bws[i] = bw
	}
	return bws
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

// TestBatchMatchesPerCall pins CountBoxBatch bit-identical to CountBox
// per box.
func TestBatchMatchesPerCall(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		e := testModel(t, int64(20+d), d, 80, 0.05)
		r := stats.NewRand(int64(31 * d))
		const k = 40
		los := make([][]float64, k)
		his := make([][]float64, k)
		for i := range los {
			lo := make([]float64, d)
			hi := make([]float64, d)
			for j := 0; j < d; j++ {
				lo[j] = r.Float64() * 0.9
				hi[j] = lo[j] + r.Float64()*0.2
			}
			los[i], his[i] = lo, hi
		}

		counts := e.CountBoxBatch(los, his, nil)
		if len(counts) != k {
			t.Fatalf("d=%d batch length %d, want %d", d, len(counts), k)
		}
		for i := 0; i < k; i++ {
			if want := e.CountBox(los[i], his[i]); counts[i] != want {
				t.Fatalf("d=%d CountBoxBatch[%d] = %v, want %v", d, i, counts[i], want)
			}
		}

		// Reusing a caller-owned out slice must not reallocate or change
		// answers.
		reused := e.CountBoxBatch(los, his, counts)
		if &reused[0] != &counts[0] {
			t.Errorf("d=%d CountBoxBatch reallocated a sufficient out slice", d)
		}
	}
}

// TestQueryZeroAllocs is the acceptance gate for the allocation-free
// steady state: every query method, on fresh and patched (tombstoned)
// models alike, runs with zero allocations per call.
func TestQueryZeroAllocs(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		models := map[string]*Estimator{
			"fresh":   testModel(t, int64(50+d), d, 500, 0.05),
			"patched": testMaintainedModel(t, int64(50+d), d, 500, 0.05),
		}
		p := make(window.Point, d)
		lo := make([]float64, d)
		hi := make([]float64, d)
		for i := 0; i < d; i++ {
			p[i] = 0.5
			lo[i], hi[i] = 0.45, 0.55
		}
		los, his := [][]float64{lo, lo, lo, lo}, [][]float64{hi, hi, hi, hi}
		out := make([]float64, 0, len(los))
		for kind, e := range models {
			cases := map[string]func(){
				"Prob":          func() { e.Prob(p, 0.02) },
				"Count":         func() { e.Count(p, 0.02) },
				"ProbBox":       func() { e.ProbBox(lo, hi) },
				"CountBox":      func() { e.CountBox(lo, hi) },
				"Density":       func() { e.Density(p) },
				"CountBoxBatch": func() { out = e.CountBoxBatch(los, his, out) },
			}
			for name, fn := range cases {
				if avg := testing.AllocsPerRun(100, fn); avg != 0 {
					t.Errorf("d=%d %s %s allocates %v per op, want 0", d, kind, name, avg)
				}
			}
		}
	}
}

// TestProbDimMismatchPanics: a centered query with a point of the wrong
// dimensionality panics rather than reading a truncated (or overlong)
// point.
func TestProbDimMismatchPanics(t *testing.T) {
	e := testModel(t, 5, 2, 20, 0.05)
	for name, fn := range map[string]func(){
		"Prob/short":  func() { e.Prob(window.Point{0.5}, 0.05) },
		"Prob/long":   func() { e.Prob(window.Point{0.5, 0.5, 0.5}, 0.05) },
		"Count/short": func() { e.Count(window.Point{0.5}, 0.05) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: dim mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestConcurrentQueries backs the query rule: two goroutines querying one
// maintained model that its owner is not patching must be race-free
// (verified under go test -race) and match the serial answers.
func TestConcurrentQueries(t *testing.T) {
	e := testMaintainedModel(t, 77, 2, 300, 0.04)
	want := make([]float64, 500)
	for i := range want {
		x := float64(i%100) / 100
		p := window.Point{x, 1 - x}
		want[i] = e.Count(p, 0.03) + e.Density(p) + e.Prob(p, 0.01)
	}
	done := make(chan bool, 2)
	for g := 0; g < 2; g++ {
		go func() {
			ok := true
			p := make(window.Point, 2)
			for i := range want {
				x := float64(i%100) / 100
				p[0], p[1] = x, 1-x
				if got := e.Count(p, 0.03) + e.Density(p) + e.Prob(p, 0.01); got != want[i] {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 2; g++ {
		if !<-done {
			t.Error("concurrent queries diverged from serial results")
		}
	}
}

// TestMarshalRoundTripKeepsScanOrder guards the verbatim layout the wire
// format carries: a round trip must preserve the prune dimension, the
// center order and the answers exactly.
func TestMarshalRoundTripKeepsScanOrder(t *testing.T) {
	e := testModel(t, 13, 2, 60, 0.03)
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	m, err := UnmarshalEstimator(data, e.MaxSlots())
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
