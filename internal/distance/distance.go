// Package distance implements distance-based (D,r)-outliers (Knorr & Ng
// [28], Section 3) and the BruteForce-D algorithm the paper uses as ground
// truth (Section 10): an exact neighbor count for every point of the
// sliding window.
//
// Neighborhoods are axis-aligned boxes (L∞ balls), matching the range
// queries N(p,r) = P[p-r,p+r]·|W| the kernel estimator answers — the
// estimator and its ground truth must count the same neighborhoods for
// precision/recall to be meaningful. Counts include the point itself,
// again matching the window-mass semantics of N(p,r).
//
// BruteForce-D here is grid-accelerated: points are bucketed into cells of
// side r so that only the 3^d adjacent cells need scanning per query. The
// result is still exact; the paper's naive O(d|W|^2) scan is kept as a
// reference implementation for testing.
package distance

import (
	"fmt"
	"math"

	"odds/internal/window"
)

// Params defines a (D,r)-outlier query: a point is an outlier when fewer
// than Threshold of the window's points (itself included) lie within L∞
// distance Radius. The paper's synthetic experiments use (45, 0.01) and
// the real datasets (100, 0.005).
type Params struct {
	Radius    float64
	Threshold float64
}

// Validate returns an error when the parameters are unusable.
func (p Params) Validate() error {
	if !(p.Radius > 0) || math.IsInf(p.Radius, 1) {
		return fmt.Errorf("distance: radius %v must be positive and finite", p.Radius)
	}
	if !(p.Threshold > 0) || math.IsInf(p.Threshold, 1) {
		return fmt.Errorf("distance: threshold %v must be positive and finite", p.Threshold)
	}
	return nil
}

// within reports whether q lies in the L∞ ball of radius r around p.
func within(p, q window.Point, r float64) bool {
	for i := range p {
		d := p[i] - q[i]
		if d > r || d < -r {
			return false
		}
	}
	return true
}

// CountNaive returns the exact number of points of pts within L∞ radius r
// of p by linear scan — the O(d|W|) inner loop of the paper's naive
// BruteForce-D.
func CountNaive(pts []window.Point, p window.Point, r float64) int {
	n := 0
	for _, q := range pts {
		if within(p, q, r) {
			n++
		}
	}
	return n
}

// BruteForceNaive flags every point of pts by the (D,r) criterion with the
// O(d|W|^2) all-pairs scan. It exists as the executable specification that
// Index-based results are tested against.
func BruteForceNaive(pts []window.Point, params Params) []bool {
	out := make([]bool, len(pts))
	for i, p := range pts {
		out[i] = float64(CountNaive(pts, p, params.Radius)) < params.Threshold
	}
	return out
}

// Index is a cell-grid over a point set enabling exact L∞ neighbor counts
// in time proportional to the occupancy of the 3^d cells adjacent to the
// query. Build once per window snapshot, query many times.
type Index struct {
	cell  float64
	dim   int
	cells map[string][]window.Point
	n     int
}

// cellKey encodes integer cell coordinates compactly.
func cellKey(coords []int) string {
	b := make([]byte, 0, len(coords)*5)
	for _, c := range coords {
		// Varint-ish signed encoding; exact round-tripping is irrelevant,
		// only injectivity matters.
		u := uint32(c<<1) ^ uint32(c>>31)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24), ',')
	}
	return string(b)
}

// NewIndex builds a grid index with cell side equal to radius r over pts.
// It panics on non-positive r or empty dimensionality, which indicate
// programming errors.
func NewIndex(pts []window.Point, r float64) *Index {
	if r <= 0 || math.IsNaN(r) {
		panic(fmt.Sprintf("distance: cell size %v must be positive", r))
	}
	idx := &Index{cell: r, cells: make(map[string][]window.Point), n: len(pts)}
	if len(pts) == 0 {
		return idx
	}
	idx.dim = len(pts[0])
	coords := make([]int, idx.dim)
	for _, p := range pts {
		if len(p) != idx.dim {
			panic(fmt.Sprintf("distance: ragged point dims %d vs %d", len(p), idx.dim))
		}
		for i, x := range p {
			coords[i] = int(math.Floor(x / r))
		}
		k := cellKey(coords)
		idx.cells[k] = append(idx.cells[k], p)
	}
	return idx
}

// Len returns the number of indexed points.
func (idx *Index) Len() int { return idx.n }

// Count returns the exact number of indexed points within L∞ radius r of
// p, for any r up to the index cell size. Larger radii would require
// scanning more than the adjacent cells and are rejected by panic.
func (idx *Index) Count(p window.Point, r float64) int {
	if r > idx.cell+1e-15 {
		panic(fmt.Sprintf("distance: query radius %v exceeds index cell %v", r, idx.cell))
	}
	if idx.n == 0 {
		return 0
	}
	if len(p) != idx.dim {
		panic(fmt.Sprintf("distance: query dim %d, index dim %d", len(p), idx.dim))
	}
	base := make([]int, idx.dim)
	for i, x := range p {
		base[i] = int(math.Floor(x / idx.cell))
	}
	count := 0
	offsets := make([]int, idx.dim)
	var walk func(d int)
	coords := make([]int, idx.dim)
	walk = func(d int) {
		if d == idx.dim {
			for i := range coords {
				coords[i] = base[i] + offsets[i]
			}
			for _, q := range idx.cells[cellKey(coords)] {
				if within(p, q, r) {
					count++
				}
			}
			return
		}
		for o := -1; o <= 1; o++ {
			offsets[d] = o
			walk(d + 1)
		}
	}
	walk(0)
	return count
}

// BruteForce flags every point of pts by the (D,r) criterion, exactly, in
// near-linear time for realistic densities. This is the reproduction's
// BruteForce-D ground truth.
func BruteForce(pts []window.Point, params Params) []bool {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	idx := NewIndex(pts, params.Radius)
	out := make([]bool, len(pts))
	for i, p := range pts {
		out[i] = float64(idx.Count(p, params.Radius)) < params.Threshold
	}
	return out
}

// Outliers returns the subset of pts flagged by BruteForce, preserving
// order.
func Outliers(pts []window.Point, params Params) []window.Point {
	flags := BruteForce(pts, params)
	var out []window.Point
	for i, f := range flags {
		if f {
			out = append(out, pts[i])
		}
	}
	return out
}
