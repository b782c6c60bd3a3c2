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
// BruteForce-D here runs on DynIndex, the one exact index: points are
// bucketed into cells of side r so that only the 3^d adjacent cells need
// scanning per query. The result is still exact; the paper's naive
// O(d|W|^2) scan (CountNaive, and BruteForceNaive in the tests) is kept as
// the reference the index is tested against.
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

// BruteForce flags every point of pts by the (D,r) criterion, exactly, in
// near-linear time for realistic densities: the points go into one
// DynIndex and each is judged by DynIndex.IsOutlier, whose early exit at
// ceil(Threshold) neighbors returns the full count's verdict. This is the
// reproduction's BruteForce-D ground truth.
func BruteForce(pts []window.Point, params Params) []bool {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	out := make([]bool, len(pts))
	if len(pts) == 0 {
		return out
	}
	idx := NewDynIndex(params.Radius, len(pts[0]))
	for _, p := range pts {
		idx.Add(p)
	}
	for i, p := range pts {
		out[i] = idx.IsOutlier(p, params)
	}
	return out
}

// AppendCellKey appends the map key of the grid cell with integer
// coordinates coords to dst: four bytes of zigzag-encoded coordinate and a
// separator per dimension. Exact round-tripping is irrelevant, only
// injectivity matters. It is the one cell encoding of the exact indexes
// (DynIndex's buckets, mdef.DynTruth's occupancies).
func AppendCellKey(dst []byte, coords []int) []byte {
	for _, c := range coords {
		u := uint32(c<<1) ^ uint32(c>>31)
		dst = append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24), ',')
	}
	return dst
}
