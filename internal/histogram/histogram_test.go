package histogram

import (
	"math"
	"testing"
	"testing/quick"

	"odds/internal/stats"
)

func TestNewEquiDepthValidation(t *testing.T) {
	if _, err := NewEquiDepth(nil, 4, 10); err != ErrNoData {
		t.Errorf("no data err = %v, want ErrNoData", err)
	}
	if _, err := NewEquiDepth([]float64{1}, 0, 10); err == nil {
		t.Error("buckets=0 accepted")
	}
	if _, err := NewEquiDepth([]float64{1}, 1, 0); err == nil {
		t.Error("windowCount=0 accepted")
	}
	if _, err := NewEquiDepth([]float64{1}, 1, math.NaN()); err == nil {
		t.Error("NaN windowCount accepted")
	}
}

func TestEquiDepthTotalMassOne(t *testing.T) {
	r := stats.NewRand(1)
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = r.Float64()
	}
	h, err := NewEquiDepth(vals, 16, 500)
	if err != nil {
		t.Fatal(err)
	}
	got := h.ProbBox([]float64{-1}, []float64{2})
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("total mass = %v, want 1", got)
	}
}

func TestEquiDepthBucketsEquallyDeep(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	h, err := NewEquiDepth(vals, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if h.Buckets() != 10 {
		t.Fatalf("Buckets = %d, want 10", h.Buckets())
	}
	for b, d := range h.depth {
		if d != 10 {
			t.Errorf("bucket %d depth = %v, want 10", b, d)
		}
	}
}

func TestEquiDepthUniformDataAccuracy(t *testing.T) {
	r := stats.NewRand(2)
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = r.Float64()
	}
	h, _ := NewEquiDepth(vals, 50, 10000)
	for _, q := range [][2]float64{{0.2, 0.4}, {0, 0.5}, {0.9, 1}, {0.33, 0.34}} {
		got := h.ProbBox([]float64{q[0]}, []float64{q[1]})
		want := q[1] - q[0]
		if math.Abs(got-want) > 0.02 {
			t.Errorf("interval %v: mass %v, want ~%v", q, got, want)
		}
	}
}

func TestEquiDepthCountScaling(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	h, _ := NewEquiDepth(vals, 4, 1000)
	n := h.Count([]float64{4.5}, 10) // covers everything
	if math.Abs(n-1000) > 1e-9 {
		t.Errorf("Count = %v, want 1000", n)
	}
	if h.WindowCount() != 1000 {
		t.Error("WindowCount wrong")
	}
}

func TestEquiDepthDuplicateHeavy(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 5 // all identical
	}
	h, err := NewEquiDepth(vals, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	got := h.ProbBox([]float64{4}, []float64{6})
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("mass around duplicates = %v, want 1", got)
	}
	if out := h.ProbBox([]float64{6}, []float64{7}); out > 1e-9 {
		t.Errorf("mass away from duplicates = %v, want 0", out)
	}
}

func TestEquiDepthDegenerateQueries(t *testing.T) {
	h, _ := NewEquiDepth([]float64{1, 2, 3, 4}, 2, 4)
	if got := h.ProbBox([]float64{2}, []float64{2}); got != 0 {
		t.Errorf("empty interval = %v, want 0", got)
	}
	if got := h.ProbBox([]float64{3}, []float64{2}); got != 0 {
		t.Errorf("inverted interval = %v, want 0", got)
	}
}

func TestEquiDepthMoreBucketsThanValues(t *testing.T) {
	h, err := NewEquiDepth([]float64{1, 2}, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Buckets() > 2 {
		t.Errorf("Buckets = %d, want ≤2", h.Buckets())
	}
	if got := h.ProbBox([]float64{0}, []float64{3}); math.Abs(got-1) > 1e-9 {
		t.Errorf("total mass = %v, want 1", got)
	}
}

func TestEquiDepthPanicsOnWrongDim(t *testing.T) {
	h, _ := NewEquiDepth([]float64{1, 2, 3}, 2, 3)
	defer func() {
		if recover() == nil {
			t.Error("2-d box on 1-d histogram did not panic")
		}
	}()
	h.ProbBox([]float64{0, 0}, []float64{1, 1})
}

func TestEquiDepthMemoryNumbers(t *testing.T) {
	h, _ := NewEquiDepth([]float64{1, 2, 3, 4}, 2, 4)
	if h.MemoryNumbers() != len(h.bounds)+len(h.depth) {
		t.Error("MemoryNumbers wrong")
	}
	if h.Dim() != 1 {
		t.Error("Dim wrong")
	}
}

// Property: mass is additive over adjacent intervals and monotone.
func TestEquiDepthAdditiveProperty(t *testing.T) {
	r := stats.NewRand(3)
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = r.NormFloat64()
	}
	h, _ := NewEquiDepth(vals, 12, 300)
	f := func(aRaw, bRaw, cRaw int16) bool {
		a, b, c := float64(aRaw)/1000, float64(bRaw)/1000, float64(cRaw)/1000
		if a > b {
			a, b = b, a
		}
		if b > c {
			b, c = c, b
		}
		if a > b {
			a, b = b, a
		}
		whole := h.probInterval(a, c)
		parts := h.probInterval(a, b) + h.probInterval(b, c)
		return math.Abs(whole-parts) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(nil, 4, 10); err != ErrNoData {
		t.Error("no data accepted")
	}
	if _, err := NewGrid([][]float64{{0.5}}, 0, 10); err == nil {
		t.Error("side=0 accepted")
	}
	if _, err := NewGrid([][]float64{{0.5}}, 2, 0); err == nil {
		t.Error("windowCount=0 accepted")
	}
	if _, err := NewGrid([][]float64{{0.5}, {0.5, 0.5}}, 2, 10); err == nil {
		t.Error("ragged points accepted")
	}
	if _, err := NewGrid([][]float64{{}}, 2, 10); err == nil {
		t.Error("zero-dim points accepted")
	}
}

func TestGridTotalMassOne(t *testing.T) {
	r := stats.NewRand(4)
	pts := make([][]float64, 400)
	for i := range pts {
		pts[i] = []float64{r.Float64(), r.Float64()}
	}
	g, err := NewGrid(pts, 8, 400)
	if err != nil {
		t.Fatal(err)
	}
	got := g.ProbBox([]float64{0, 0}, []float64{1, 1})
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("total mass = %v, want 1", got)
	}
}

func TestGrid2DUniformAccuracy(t *testing.T) {
	r := stats.NewRand(5)
	pts := make([][]float64, 20000)
	for i := range pts {
		pts[i] = []float64{r.Float64(), r.Float64()}
	}
	g, _ := NewGrid(pts, 16, 20000)
	got := g.ProbBox([]float64{0.25, 0.25}, []float64{0.75, 0.75})
	if math.Abs(got-0.25) > 0.02 {
		t.Errorf("quarter box mass = %v, want ~0.25", got)
	}
}

func TestGridPartialCellOverlap(t *testing.T) {
	// One point in cell [0, 0.5) of a side-2 grid; querying half that cell
	// should yield half the mass under the uniform-within-cell assumption.
	g, _ := NewGrid([][]float64{{0.25}}, 2, 1)
	got := g.ProbBox([]float64{0}, []float64{0.25})
	if math.Abs(got-0.5) > 1e-9 {
		t.Errorf("half-cell mass = %v, want 0.5", got)
	}
}

func TestGridClampsOutOfRangePoints(t *testing.T) {
	g, err := NewGrid([][]float64{{1.0}, {-0.2}, {1.3}}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := g.ProbBox([]float64{0}, []float64{1})
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("clamped mass = %v, want 1", got)
	}
}

func TestGridCountAndAccessors(t *testing.T) {
	g, _ := NewGrid([][]float64{{0.5, 0.5}}, 4, 100)
	if g.Dim() != 2 || g.WindowCount() != 100 {
		t.Error("accessors wrong")
	}
	if g.MemoryNumbers() != 16 {
		t.Errorf("MemoryNumbers = %d, want 16", g.MemoryNumbers())
	}
	n := g.Count([]float64{0.5, 0.5}, 0.5)
	if math.Abs(n-100) > 1e-9 {
		t.Errorf("Count = %v, want 100", n)
	}
	if got := g.CountBox([]float64{0, 0}, []float64{1, 1}); math.Abs(got-100) > 1e-9 {
		t.Errorf("CountBox = %v, want 100", got)
	}
}

func TestGridDegenerateBox(t *testing.T) {
	g, _ := NewGrid([][]float64{{0.5, 0.5}}, 4, 1)
	if got := g.ProbBox([]float64{0.5, 0.5}, []float64{0.5, 0.7}); got != 0 {
		t.Errorf("degenerate box mass = %v, want 0", got)
	}
}

func TestGridPanicsOnWrongDim(t *testing.T) {
	g, _ := NewGrid([][]float64{{0.5, 0.5}}, 4, 1)
	defer func() {
		if recover() == nil {
			t.Error("1-d box on 2-d grid did not panic")
		}
	}()
	g.ProbBox([]float64{0}, []float64{1})
}
