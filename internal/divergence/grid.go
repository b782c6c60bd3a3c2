package divergence

import "fmt"

// GridEval is a reusable JS-divergence evaluator: the same statistic as
// JS, but with every buffer (mass vectors, box bounds, odometer) owned by
// the evaluator, so repeated evaluations allocate nothing. The serving
// layer's drift monitor calls it on every model-signal check inside the
// zero-alloc ingest hot path, where the allocating JS would be a per-check
// garbage source.
type GridEval struct {
	dim        int
	gridPoints int
	pp, qq     []float64
	lo, hi     []float64
	idx        []int
}

// NewGridEval returns an evaluator for dim-dimensional models on a
// gridPoints-per-dimension unit-domain grid.
func NewGridEval(dim, gridPoints int) *GridEval {
	if dim <= 0 {
		panic(fmt.Sprintf("divergence: dim %d must be positive", dim))
	}
	if gridPoints <= 0 {
		panic(fmt.Sprintf("divergence: gridPoints %d must be positive", gridPoints))
	}
	cells := pow(gridPoints, dim)
	return &GridEval{
		dim:        dim,
		gridPoints: gridPoints,
		pp:         make([]float64, cells),
		qq:         make([]float64, cells),
		lo:         make([]float64, dim),
		hi:         make([]float64, dim),
		idx:        make([]int, dim),
	}
}

// JS returns the Jensen-Shannon divergence between p and q, identical to
// the package-level JS (the differential test pins them bit-for-bit) but
// allocation-free. Both models must have the evaluator's dimensionality.
func (g *GridEval) JS(p, q Model) float64 {
	g.masses(p, q)
	return float64(0.5*klTo(g.pp, g.qq)) + float64(0.5*klTo(g.qq, g.pp))
}

// masses fills pp/qq with both models' normalized cell masses, walking
// the grid with an odometer in the same cell order as gridMasses'
// recursion (last dimension fastest).
func (g *GridEval) masses(p, q Model) {
	if p.Dim() != g.dim || q.Dim() != g.dim {
		panic(fmt.Sprintf("divergence: model dims %d/%d, evaluator dim %d", p.Dim(), q.Dim(), g.dim))
	}
	w := 1.0 / float64(g.gridPoints)
	for d := 0; d < g.dim; d++ {
		g.idx[d] = 0
		g.lo[d] = 0
		g.hi[d] = w
	}
	for c := range g.pp {
		g.pp[c] = clampMass(p.ProbBox(g.lo, g.hi))
		g.qq[c] = clampMass(q.ProbBox(g.lo, g.hi))
		for d := g.dim - 1; d >= 0; d-- {
			g.idx[d]++
			if g.idx[d] < g.gridPoints {
				g.lo[d] = float64(g.idx[d]) * w
				g.hi[d] = float64(g.idx[d]+1) * w
				break
			}
			g.idx[d] = 0
			g.lo[d] = 0
			g.hi[d] = w
		}
	}
	normalize(g.pp)
	normalize(g.qq)
}
