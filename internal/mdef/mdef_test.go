package mdef

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"odds/internal/kernel"
	"odds/internal/stats"
	"odds/internal/stream"
	"odds/internal/window"
)

var testParams = Params{R: 0.08, AlphaR: 0.01, KSigma: 3}

func TestParamsValidate(t *testing.T) {
	if err := testParams.Validate(); err != nil {
		t.Errorf("paper params rejected: %v", err)
	}
	bad := []Params{
		{R: 0, AlphaR: 0.01, KSigma: 3},
		{R: 0.08, AlphaR: 0, KSigma: 3},
		{R: 0.01, AlphaR: 0.08, KSigma: 3}, // αr > r
		{R: 0.08, AlphaR: 0.01, KSigma: 0},
		{R: math.NaN(), AlphaR: 0.01, KSigma: 3},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func TestCellStats(t *testing.T) {
	// Counts {4,4,4}: every point sees n̂=4, σ=0.
	avg, sig := cellStats([]float64{4, 4, 4})
	if avg != 4 || sig != 0 {
		t.Errorf("uniform cells: avg=%v sig=%v, want 4,0", avg, sig)
	}
	// Counts {1,9}: weighted avg = (1+81)/10 = 8.2.
	avg, sig = cellStats([]float64{1, 9})
	if math.Abs(avg-8.2) > 1e-12 {
		t.Errorf("avg = %v, want 8.2", avg)
	}
	if sig <= 0 {
		t.Errorf("sig = %v, want > 0", sig)
	}
	// Empty or zero counts.
	if avg, sig := cellStats(nil); avg != 0 || sig != 0 {
		t.Error("empty cellStats should be 0,0")
	}
}

func TestCellRange(t *testing.T) {
	// Cells of width 0.02: [0.30,0.46] touches cells 15..22.
	first, last := cellRange(0.30, 0.46, 0.01)
	if first != 15 || last != 22 {
		t.Errorf("cellRange = [%d,%d], want [15,22]", first, last)
	}
	// Degenerate interval still yields one cell.
	first, last = cellRange(0.5, 0.5, 0.01)
	if last < first {
		t.Errorf("degenerate range [%d,%d]", first, last)
	}
}

// uniformCluster builds a KDE over a dense cluster plus optional isolated
// points.
func clusterModel(t *testing.T, isolated []float64, n int) *kernel.Estimator {
	t.Helper()
	r := stats.NewRand(11)
	var pts []window.Point
	var m stats.Moments
	for i := 0; i < n; i++ {
		x := stats.Clamp(0.3+r.NormFloat64()*0.03, 0, 1)
		pts = append(pts, window.Point{x})
		m.Add(x)
	}
	for _, x := range isolated {
		pts = append(pts, window.Point{x})
		m.Add(x)
	}
	e, err := kernel.FromSample(pts, []float64{m.StdDev()}, float64(len(pts)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEvaluateClusterMemberNotOutlier(t *testing.T) {
	m := clusterModel(t, nil, 1000)
	res := Evaluate(m, window.Point{0.3}, testParams)
	if res.Outlier {
		t.Errorf("cluster center flagged: %+v", res)
	}
	if res.MDEF > 0.3 {
		t.Errorf("cluster center MDEF = %v, want small", res.MDEF)
	}
}

// uniformModel builds a KDE with an explicit (narrow) bandwidth over a
// uniform cluster on [lo,hi], scaled to wcount window values. MDEF with a
// fixed sampling radius fires exactly when the local neighborhood is
// homogeneous except for the query point — a uniform block provides that.
func uniformModel(t *testing.T, lo, hi float64, n int, bw float64, wcount float64) *kernel.Estimator {
	t.Helper()
	r := stats.NewRand(29)
	pts := make([]window.Point, n)
	for i := range pts {
		pts[i] = window.Point{lo + r.Float64()*(hi-lo)}
	}
	e, err := kernel.New(pts, []float64{bw}, wcount)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEvaluateIsolatedPointIsOutlier(t *testing.T) {
	// Dense uniform block on [0.2,0.4]; query point at 0.45 sits in an
	// empty counting neighborhood while its sampling neighborhood covers
	// the homogeneous block interior.
	m := uniformModel(t, 0.2, 0.4, 400, 0.02, 2000)
	res := Evaluate(m, window.Point{0.45}, testParams)
	if !res.Outlier {
		t.Errorf("isolated point not flagged: %+v", res)
	}
	if res.MDEF <= 0.9 {
		t.Errorf("isolated MDEF = %v, want ≈1", res.MDEF)
	}
}

func TestEvaluateInsideUniformBlockNotOutlier(t *testing.T) {
	m := uniformModel(t, 0.2, 0.4, 400, 0.02, 2000)
	res := Evaluate(m, window.Point{0.3}, testParams)
	if res.Outlier {
		t.Errorf("uniform-block interior flagged: %+v", res)
	}
}

func TestEvaluateEmptyNeighborhood(t *testing.T) {
	m := clusterModel(t, nil, 500)
	// Far from all mass: no sampling-neighborhood mass → not an outlier
	// (nothing to deviate from), MDEF = 0.
	res := Evaluate(m, window.Point{0.95}, testParams)
	if res.Outlier || res.MDEF != 0 {
		t.Errorf("empty neighborhood: %+v, want zero result", res)
	}
}

func TestEvaluatePanics(t *testing.T) {
	m := clusterModel(t, nil, 100)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad params did not panic")
			}
		}()
		Evaluate(m, window.Point{0.5}, Params{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("dim mismatch did not panic")
			}
		}()
		Evaluate(m, window.Point{0.5, 0.5}, testParams)
	}()
}

func TestIsOutlierAgreesWithEvaluate(t *testing.T) {
	m := clusterModel(t, []float64{0.8}, 800)
	for _, x := range []float64{0.3, 0.8, 0.32} {
		p := window.Point{x}
		if IsOutlier(m, p, testParams) != Evaluate(m, p, testParams).Outlier {
			t.Errorf("IsOutlier disagrees with Evaluate at %v", x)
		}
	}
}

// bruteData builds a uniform block on [0.2,0.4] plus isolated points.
func bruteData(seed int64, n int, isolated ...float64) []window.Point {
	r := stats.NewRand(seed)
	var pts []window.Point
	for i := 0; i < n; i++ {
		pts = append(pts, window.Point{0.2 + r.Float64()*0.2})
	}
	for _, x := range isolated {
		pts = append(pts, window.Point{x})
	}
	return pts
}

func TestBruteForceFlagsIsolated(t *testing.T) {
	pts := bruteData(3, 3000, 0.45, 0.47)
	flags := BruteForce(pts, testParams)
	if !flags[3000] || !flags[3001] {
		t.Error("isolated points not flagged by BruteForce-M")
	}
	// Block-boundary points (within αr of the support edge) legitimately
	// satisfy the criterion — their counting box is truncated to half the
	// local average. Interior points must not be flagged.
	nInterior := 0
	for i := 0; i < 3000; i++ {
		if flags[i] && pts[i][0] > 0.22 && pts[i][0] < 0.38 {
			nInterior++
		}
	}
	if nInterior > 30 {
		t.Errorf("%d interior points flagged, want few", nInterior)
	}
}

func TestBruteForceEmptyInput(t *testing.T) {
	if got := BruteForce(nil, testParams); len(got) != 0 {
		t.Error("empty input should yield empty flags")
	}
}

func TestBruteForcePanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad params did not panic")
		}
	}()
	BruteForce(bruteData(1, 10), Params{R: -1, AlphaR: 0.01, KSigma: 3})
}

// TestBruteForceMatchesNaive: BruteForce-M runs on DynTruth, so its
// reference is the independently-written naive scan, point for point on
// small random sets in 1-d and 2-d.
func TestBruteForceMatchesNaive(t *testing.T) {
	for _, dim := range []int{1, 2} {
		f := func(seed int64, nRaw uint8, isolated bool) bool {
			r := stats.NewRand(seed)
			pts := make([]window.Point, int(nRaw%80)+1)
			for i := range pts {
				p := make(window.Point, dim)
				for j := range p {
					p[j] = 0.2 + 0.2*r.Float64()
				}
				pts[i] = p
			}
			if isolated {
				p := make(window.Point, dim)
				for j := range p {
					p[j] = 0.45
				}
				pts = append(pts, p)
			}
			prm := Params{R: 0.08, AlphaR: 0.02, KSigma: 1 + 2*r.Float64()}
			got, want := BruteForce(pts, prm), naiveBruteForce(pts, prm)
			for i := range want {
				if got[i] != want[i] {
					t.Logf("dim %d seed %d point %d (%v): BruteForce %v, naive %v", dim, seed, i, pts[i], got[i], want[i])
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("dim %d: %v", dim, err)
		}
	}
}

// Local-density robustness: MDEF should tolerate clusters of different
// densities, the scenario Section 3 motivates it with. A member of a
// sparse-but-consistent cluster must not be flagged even though its
// absolute neighbor count is low.
func TestMDEFLocalDensityRobustness(t *testing.T) {
	r := stats.NewRand(17)
	var pts []window.Point
	// Dense cluster near 0.2.
	for i := 0; i < 4000; i++ {
		pts = append(pts, window.Point{stats.Clamp(0.2+r.NormFloat64()*0.01, 0, 1)})
	}
	// Sparse but uniform cluster spanning [0.6, 0.9].
	for i := 0; i < 400; i++ {
		pts = append(pts, window.Point{0.6 + r.Float64()*0.3})
	}
	flags := BruteForce(pts, Params{R: 0.08, AlphaR: 0.01, KSigma: 3})
	sparseFlagged := 0
	for i := 4000; i < len(pts); i++ {
		if flags[i] {
			sparseFlagged++
		}
	}
	if sparseFlagged > 60 {
		t.Errorf("%d/400 sparse-cluster members flagged; MDEF should adapt to local density", sparseFlagged)
	}
}

// holeData2D builds a uniform field on [0.2,0.6]^2 with an L∞ hole of
// radius 0.05 around (0.4,0.4), plus the query point sitting alone inside
// the hole — the local-density-deficit scenario MDEF is designed for.
func holeData2D(seed int64, n int) []window.Point {
	r := stats.NewRand(seed)
	var pts []window.Point
	for len(pts) < n {
		x := 0.2 + r.Float64()*0.4
		y := 0.2 + r.Float64()*0.4
		if math.Abs(x-0.4) < 0.05 && math.Abs(y-0.4) < 0.05 {
			continue
		}
		pts = append(pts, window.Point{x, y})
	}
	pts = append(pts, window.Point{0.4, 0.4})
	return pts
}

// MDEF is computed on domain-aligned cells of width 2αr, so translating
// every point (and the query) by an exact multiple of the cell width must
// leave the verdict unchanged — a structural invariant of the aLOCI grid.
func TestBruteForceTranslationInvariance(t *testing.T) {
	pts := bruteData(59, 1200, 0.45)
	shift := 2 * testParams.AlphaR * 10 // ten cells
	shifted := make([]window.Point, len(pts))
	for i, p := range pts {
		shifted[i] = window.Point{p[0] + shift}
	}
	a := BruteForce(pts, testParams)
	b := BruteForce(shifted, testParams)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("translation changed verdict for point %d", i)
		}
	}
}

func TestEvaluate2D(t *testing.T) {
	pts := holeData2D(19, 4000)
	e, err := kernel.New(pts, []float64{0.03, 0.03}, float64(len(pts)))
	if err != nil {
		t.Fatal(err)
	}
	prm := Params{R: 0.08, AlphaR: 0.02, KSigma: 3}
	if !IsOutlier(e, window.Point{0.4, 0.4}, prm) {
		t.Error("hole point not flagged")
	}
	if IsOutlier(e, window.Point{0.3, 0.3}, prm) {
		t.Error("uniform-field interior flagged")
	}
}

func TestBruteForce2D(t *testing.T) {
	pts := holeData2D(23, 4000)
	flags := BruteForce(pts, Params{R: 0.08, AlphaR: 0.02, KSigma: 3})
	if !flags[len(flags)-1] {
		t.Error("hole point not flagged by BruteForce-M")
	}
	nField := 0
	for i := 0; i < len(flags)-1; i++ {
		if flags[i] {
			nField++
		}
	}
	if nField > 200 {
		t.Errorf("%d field points flagged, want few", nField)
	}
}

func TestCalibrateKSigma(t *testing.T) {
	src := stream.NewMixture(stream.DefaultMixture(), 1, 5)
	pts := make([]window.Point, 4000)
	for i := range pts {
		pts[i] = src.Next()
	}
	prm := Params{R: 0.08, AlphaR: 0.01, KSigma: 3}
	k := CalibrateKSigma(pts, prm, 20, 60)
	prm.KSigma = k
	n := 0
	for _, f := range BruteForce(pts, prm) {
		if f {
			n++
		}
	}
	if n < 20 || n > 60 {
		t.Errorf("calibrated kSigma=%v yields %d outliers, want [20,60]", k, n)
	}
	// When k=3 already yields enough outliers, it is kept: a uniform block
	// with an adjacent isolated point fires even at the paper's setting.
	blocky := make([]window.Point, 0, 2001)
	for i := 0; i < 2000; i++ {
		blocky = append(blocky, window.Point{0.2 + 0.0001*float64(i)})
	}
	blocky = append(blocky, window.Point{0.45})
	kept := CalibrateKSigma(blocky, prm, 1, 1<<30)
	if kept != 3 {
		t.Errorf("k=3 should be kept when it already fires, got %v", kept)
	}
}

func TestCalibrateKSigmaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad target did not panic")
		}
	}()
	CalibrateKSigma(nil, Params{R: 0.08, AlphaR: 0.01, KSigma: 3}, 10, 5)
}

// TestCalibrateKSigmaPinned pins the calibrated k_σ bit for bit on fixed
// mixture windows. The values were taken when calibration still re-ran
// BruteForce-M at every bisection step; evaluating each point once must
// land on the same bisection midpoint.
func TestCalibrateKSigmaPinned(t *testing.T) {
	for _, c := range []struct {
		dim, n int
		alphaR float64
		lo, hi int
		want   string
	}{
		{1, 4000, 0.01, 20, 60, "0x1.50ccccccccccdp+01"},
		{2, 3000, 0.02, 10, 40, "0x1.0ap+01"},
	} {
		pts := stream.Take(stream.NewMixture(stream.DefaultMixture(), c.dim, 5), c.n)
		k := CalibrateKSigma(pts, Params{R: 0.08, AlphaR: c.alphaR, KSigma: 3}, c.lo, c.hi)
		if got := fmt.Sprintf("%x", k); got != c.want {
			t.Errorf("dim %d: k = %s (%v), want %s", c.dim, got, k, c.want)
		}
	}
}
