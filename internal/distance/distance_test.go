package distance

import (
	"testing"
	"testing/quick"

	"odds/internal/stats"
	"odds/internal/window"
)

func randPts(seed int64, n, d int) []window.Point {
	r := stats.NewRand(seed)
	out := make([]window.Point, n)
	for i := range out {
		p := make(window.Point, d)
		for j := range p {
			p[j] = r.Float64()
		}
		out[i] = p
	}
	return out
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{Radius: 0.01, Threshold: 45}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Radius: 0, Threshold: 1},
		{Radius: -1, Threshold: 1},
		{Radius: 0.1, Threshold: 0},
		{Radius: 0.1, Threshold: -3},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func TestCountNaiveIncludesSelf(t *testing.T) {
	pts := []window.Point{{0.5}, {0.505}, {0.9}}
	if got := CountNaive(pts, pts[0], 0.01); got != 2 {
		t.Errorf("count = %d, want 2 (self + near neighbor)", got)
	}
}

func TestCountNaiveBoundaryInclusive(t *testing.T) {
	pts := []window.Point{{0.25}, {0.375}} // distance exactly 0.125 in binary
	if got := CountNaive(pts, pts[0], 0.125); got != 2 {
		t.Errorf("boundary point excluded: count = %d, want 2", got)
	}
}

func TestBruteForceNaiveSimple(t *testing.T) {
	// A tight cluster plus one isolated point.
	pts := []window.Point{{0.50}, {0.501}, {0.502}, {0.9}}
	flags := BruteForceNaive(pts, Params{Radius: 0.01, Threshold: 3})
	want := []bool{false, false, false, true}
	for i := range want {
		if flags[i] != want[i] {
			t.Errorf("point %d flag = %v, want %v", i, flags[i], want[i])
		}
	}
}

// dynIndexOf loads pts into a fresh DynIndex of cell side r.
func dynIndexOf(pts []window.Point, r float64, dim int) *DynIndex {
	idx := NewDynIndex(r, dim)
	for _, p := range pts {
		idx.Add(p)
	}
	return idx
}

func TestIndexMatchesNaive1D(t *testing.T) {
	pts := randPts(1, 400, 1)
	idx := dynIndexOf(pts, 0.02, 1)
	for _, p := range pts[:50] {
		want := CountNaive(pts, p, 0.02)
		got := idx.Count(p, 0.02)
		if got != want {
			t.Fatalf("Count(%v) = %d, naive %d", p, got, want)
		}
	}
}

func TestIndexMatchesNaive2D(t *testing.T) {
	pts := randPts(2, 300, 2)
	idx := dynIndexOf(pts, 0.05, 2)
	for _, p := range pts[:50] {
		want := CountNaive(pts, p, 0.05)
		got := idx.Count(p, 0.05)
		if got != want {
			t.Fatalf("2-d Count(%v) = %d, naive %d", p, got, want)
		}
	}
}

// A query radius below the cell size still scans the 3^d adjacent cells
// and filters by the smaller box.
func TestIndexSmallerQueryRadius(t *testing.T) {
	pts := randPts(3, 200, 1)
	idx := dynIndexOf(pts, 0.05, 1)
	for _, p := range pts[:30] {
		want := CountNaive(pts, p, 0.03)
		if got := idx.Count(p, 0.03); got != want {
			t.Fatalf("smaller-radius count = %d, naive %d", got, want)
		}
		if got := idx.CountUpTo(p, 0.03, 1<<30); got != want {
			t.Fatalf("smaller-radius CountUpTo = %d, naive %d", got, want)
		}
	}
}

func TestIndexRejectsOversizeRadius(t *testing.T) {
	idx := dynIndexOf(randPts(4, 10, 1), 0.01, 1)
	defer func() {
		if recover() == nil {
			t.Error("oversize radius did not panic")
		}
	}()
	idx.Count(window.Point{0.5}, 0.02)
}

func TestIndexEmpty(t *testing.T) {
	idx := NewDynIndex(0.01, 1)
	if idx.Len() != 0 {
		t.Error("empty index Len != 0")
	}
	if got := idx.Count(window.Point{0.5}, 0.01); got != 0 {
		t.Errorf("empty index count = %d, want 0", got)
	}
	if !idx.IsOutlier(window.Point{0.5}, Params{Radius: 0.01, Threshold: 1}) {
		t.Error("a point of an empty index is not an outlier")
	}
}

func TestIndexPanicsOnBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"cell size 0":   func() { NewDynIndex(0, 1) },
		"ragged points": func() { dynIndexOf([]window.Point{{0.1}, {0.1, 0.2}}, 0.01, 1) },
		"query dim mismatch": func() {
			dynIndexOf([]window.Point{{0.1}}, 0.01, 1).Count(window.Point{0.1, 0.2}, 0.01)
		},
		"empty index query dim mismatch": func() { NewDynIndex(0.01, 1).Count(window.Point{0.1, 0.2}, 0.01) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestIndexNegativeCoordinates(t *testing.T) {
	// Cell flooring must be correct for negative coordinates too (points
	// near zero with query boxes extending below it).
	pts := []window.Point{{-0.005}, {0.004}, {-0.013}, {0.5}}
	idx := dynIndexOf(pts, 0.01, 1)
	for _, p := range pts {
		want := CountNaive(pts, p, 0.01)
		if got := idx.Count(p, 0.01); got != want {
			t.Errorf("negative-coord count at %v = %d, naive %d", p, got, want)
		}
	}
}

func TestBruteForceAgreesWithNaiveProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%60) + 2
		pts := randPts(seed, n, 1)
		p := Params{Radius: 0.03, Threshold: 3}
		a := BruteForce(pts, p)
		b := BruteForceNaive(pts, p)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBruteForce2DAgreesWithNaiveProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		pts := randPts(seed, n, 2)
		p := Params{Radius: 0.05, Threshold: 2}
		a := BruteForce(pts, p)
		b := BruteForceNaive(pts, p)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBruteForcePanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad params did not panic")
		}
	}()
	BruteForce(randPts(5, 10, 1), Params{Radius: -1, Threshold: 1})
}

func TestClusterVsIsolatedScenario(t *testing.T) {
	// The paper's synthetic setting in miniature: dense Gaussian cores plus
	// sparse uniform noise in [0.5,1]; noise should dominate the outliers.
	r := stats.NewRand(7)
	var pts []window.Point
	for i := 0; i < 2000; i++ {
		pts = append(pts, window.Point{stats.Clamp(0.3+r.NormFloat64()*0.03, 0, 1)})
	}
	var noiseIdx []int
	for i := 0; i < 10; i++ {
		noiseIdx = append(noiseIdx, len(pts))
		pts = append(pts, window.Point{0.5 + r.Float64()*0.5})
	}
	flags := BruteForce(pts, Params{Radius: 0.01, Threshold: 45})
	for _, i := range noiseIdx {
		if !flags[i] {
			t.Errorf("noise point %v not flagged", pts[i])
		}
	}
	core := 0
	for i := 0; i < 2000; i++ {
		if flags[i] {
			core++
		}
	}
	if core > 100 {
		t.Errorf("%d core points flagged, want few", core)
	}
}
