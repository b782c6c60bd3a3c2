// Package histogram implements the equi-depth histogram estimator the
// paper compares kernels against (Section 10, Figure 7). Following the
// paper's deliberately favorable setup for this baseline, histograms are
// built by accessing all |W| values of the sliding window (at parent
// sensors: the union of all descendant leaf windows) rather than a sample;
// |B| buckets are used so that |B| = |R| gives comparable memory.
//
// A d-dimensional equi-width grid variant is also provided for the 2-d
// experiments; the paper only reports histogram results for 1-d data.
//
// A product that feeds a sum is written float64(x*y), a rounding the Go
// spec forbids the compiler to fuse into a multiply-add, so every
// architecture computes what amd64 does, bit for bit (DESIGN.md §7).
package histogram

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoData is returned when building a histogram from no observations.
var ErrNoData = errors.New("histogram: no data")

// EquiDepth is a one-dimensional equi-depth histogram: every bucket holds
// (approximately) the same number of observations, so bucket boundaries
// are quantiles. Within a bucket, mass is assumed uniform.
type EquiDepth struct {
	bounds []float64 // len = buckets+1, ascending
	depth  []float64 // observations per bucket
	total  float64
	wcount float64
}

// NewEquiDepth builds a |B|-bucket equi-depth histogram over values,
// scaling range-query counts by windowCount (pass float64(len(values)) for
// a plain window histogram). values is not modified.
func NewEquiDepth(values []float64, buckets int, windowCount float64) (*EquiDepth, error) {
	if len(values) == 0 {
		return nil, ErrNoData
	}
	if buckets <= 0 {
		return nil, fmt.Errorf("histogram: buckets %d must be positive", buckets)
	}
	if windowCount <= 0 || math.IsNaN(windowCount) {
		return nil, fmt.Errorf("histogram: window count %v must be positive", windowCount)
	}
	if buckets > len(values) {
		buckets = len(values)
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)

	n := len(sorted)
	h := &EquiDepth{
		bounds: make([]float64, 0, buckets+1),
		depth:  make([]float64, 0, buckets),
		total:  float64(n),
		wcount: windowCount,
	}
	h.bounds = append(h.bounds, sorted[0])
	prevIdx := 0
	for b := 1; b <= buckets; b++ {
		idx := b * n / buckets // exclusive end of this bucket's range
		if idx <= prevIdx {
			continue
		}
		hi := sorted[idx-1]
		if b < buckets {
			// Use the midpoint between the last value inside and the first
			// value outside as the boundary, so identical values never
			// straddle a boundary ambiguously.
			hi = (sorted[idx-1] + sorted[idx]) / 2
		}
		last := h.bounds[len(h.bounds)-1]
		if hi <= last {
			// Duplicate-heavy data can collapse boundaries; widen by the
			// smallest representable step to keep bounds strictly
			// increasing.
			hi = math.Nextafter(last, math.Inf(1))
		}
		h.bounds = append(h.bounds, hi)
		h.depth = append(h.depth, float64(idx-prevIdx))
		prevIdx = idx
	}
	return h, nil
}

// Buckets returns the number of buckets actually materialized (≤ |B|).
func (h *EquiDepth) Buckets() int { return len(h.depth) }

// Dim returns 1.
func (h *EquiDepth) Dim() int { return 1 }

// WindowCount returns the count range queries scale by.
func (h *EquiDepth) WindowCount() float64 { return h.wcount }

// MemoryNumbers returns stored scalars: bucket bounds plus depths.
func (h *EquiDepth) MemoryNumbers() int { return len(h.bounds) + len(h.depth) }

// ProbBox returns the estimated probability mass of [lo[0], hi[0]],
// assuming uniform mass inside each bucket.
func (h *EquiDepth) ProbBox(lo, hi []float64) float64 {
	if len(lo) != 1 || len(hi) != 1 {
		panic(fmt.Sprintf("histogram: box dims %d,%d; EquiDepth is 1-d", len(lo), len(hi)))
	}
	return h.probInterval(lo[0], hi[0])
}

func (h *EquiDepth) probInterval(lo, hi float64) float64 {
	if hi <= lo || len(h.depth) == 0 {
		return 0
	}
	mass := 0.0
	for b := 0; b < len(h.depth); b++ {
		bl, bh := h.bounds[b], h.bounds[b+1]
		ol := math.Max(lo, bl)
		oh := math.Min(hi, bh)
		if oh <= ol {
			continue
		}
		width := bh - bl
		if width <= 0 {
			// Point bucket: counts if the query covers the point.
			if lo <= bl && bl <= hi {
				mass += h.depth[b]
			}
			continue
		}
		mass += h.depth[b] * (oh - ol) / width
	}
	return mass / h.total
}

// Prob returns the probability mass of the centered interval [p-r, p+r].
func (h *EquiDepth) Prob(p []float64, r float64) float64 {
	return h.probInterval(p[0]-r, p[0]+r)
}

// Count answers the range query N(p,r) = P[p-r,p+r]·|W|.
func (h *EquiDepth) Count(p []float64, r float64) float64 {
	return h.Prob(p, r) * h.wcount
}

// CountBox is Count for an explicit box.
func (h *EquiDepth) CountBox(lo, hi []float64) float64 {
	return h.ProbBox(lo, hi) * h.wcount
}

// Grid is a d-dimensional equi-width histogram over [0,1]^d with side
// cells per dimension. It extends the histogram baseline to the paper's
// 2-d experiments.
type Grid struct {
	side   int
	dim    int
	cells  []float64
	total  float64
	wcount float64
}

// NewGrid builds a grid histogram over points (each in [0,1]^d) with the
// given cells-per-dimension, scaling counts by windowCount.
func NewGrid(points [][]float64, side int, windowCount float64) (*Grid, error) {
	if len(points) == 0 {
		return nil, ErrNoData
	}
	if side <= 0 {
		return nil, fmt.Errorf("histogram: side %d must be positive", side)
	}
	if windowCount <= 0 || math.IsNaN(windowCount) {
		return nil, fmt.Errorf("histogram: window count %v must be positive", windowCount)
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, errors.New("histogram: zero-dimensional points")
	}
	ncells := 1
	for i := 0; i < dim; i++ {
		ncells *= side
	}
	g := &Grid{side: side, dim: dim, cells: make([]float64, ncells), wcount: windowCount}
	for _, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("histogram: ragged point dims %d vs %d", len(p), dim)
		}
		idx := 0
		for i := 0; i < dim; i++ {
			c := int(p[i] * float64(side))
			if c >= side {
				c = side - 1
			}
			if c < 0 {
				c = 0
			}
			idx = idx*side + c
		}
		g.cells[idx]++
		g.total++
	}
	return g, nil
}

// Dim returns the grid dimensionality.
func (g *Grid) Dim() int { return g.dim }

// WindowCount returns the count range queries scale by.
func (g *Grid) WindowCount() float64 { return g.wcount }

// MemoryNumbers returns stored scalars (one count per cell).
func (g *Grid) MemoryNumbers() int { return len(g.cells) }

// ProbBox returns the estimated probability mass of the box [lo, hi],
// assuming uniform mass inside each cell.
func (g *Grid) ProbBox(lo, hi []float64) float64 {
	if len(lo) != g.dim || len(hi) != g.dim {
		panic(fmt.Sprintf("histogram: box dims %d,%d, grid dim %d", len(lo), len(hi), g.dim))
	}
	for i := range lo {
		if hi[i] <= lo[i] {
			return 0
		}
	}
	mass := g.walk(0, 0, lo, hi, 1)
	return mass / g.total
}

// walk recursively accumulates overlap-weighted cell counts.
func (g *Grid) walk(dim, base int, lo, hi []float64, frac float64) float64 {
	w := 1.0 / float64(g.side)
	first := int(math.Floor(lo[dim] / w))
	last := int(math.Ceil(hi[dim]/w)) - 1
	if first < 0 {
		first = 0
	}
	if last >= g.side {
		last = g.side - 1
	}
	sum := 0.0
	for c := first; c <= last; c++ {
		cl, ch := float64(c)*w, float64(c+1)*w
		ol := math.Max(lo[dim], cl)
		oh := math.Min(hi[dim], ch)
		if oh <= ol {
			continue
		}
		f := frac * (oh - ol) / w
		idx := base*g.side + c
		if dim == g.dim-1 {
			sum += float64(g.cells[idx] * f)
		} else {
			sum += g.walk(dim+1, idx, lo, hi, f)
		}
	}
	return sum
}

// Prob returns the probability mass of the centered box [p-r, p+r].
func (g *Grid) Prob(p []float64, r float64) float64 {
	lo := make([]float64, g.dim)
	hi := make([]float64, g.dim)
	for i := range lo {
		lo[i] = p[i] - r
		hi[i] = p[i] + r
	}
	return g.ProbBox(lo, hi)
}

// Count answers the range query N(p,r) = P[p-r,p+r]·|W|.
func (g *Grid) Count(p []float64, r float64) float64 {
	return g.Prob(p, r) * g.wcount
}

// CountBox is Count for an explicit box.
func (g *Grid) CountBox(lo, hi []float64) float64 {
	return g.ProbBox(lo, hi) * g.wcount
}
