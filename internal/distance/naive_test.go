package distance

import "odds/internal/window"

// BruteForceNaive flags every point of pts by the (D,r) criterion with the
// O(d|W|^2) all-pairs scan: the executable specification DynIndex-based
// results are tested against, exported to the external oracle tests from
// this test file.
func BruteForceNaive(pts []window.Point, params Params) []bool {
	out := make([]bool, len(pts))
	for i, p := range pts {
		out[i] = float64(CountNaive(pts, p, params.Radius)) < params.Threshold
	}
	return out
}
