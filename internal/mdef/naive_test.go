package mdef

import (
	"fmt"
	"math"

	"odds/internal/distance"
	"odds/internal/window"
)

// NaiveMDEF and NaiveBruteForce export the naive references to the
// external oracle test (package mdef_test).
var (
	NaiveMDEF       = naiveMDEF
	NaiveBruteForce = naiveBruteForce
)

// naiveMDEF is an independently-written single-point BruteForce-M
// reference: exact αr-neighborhood count by linear scan, exact cell
// occupancies by full rebuild under string keys, cells walked in the same
// lexicographic order the package uses so the aggregate arithmetic is
// bit-identical. It shares no code with DynTruth (and so with BruteForce,
// which runs on one), which is what lets a differential test against it
// catch a fault in either. A per-arrival check costs O(|W| + cells).
func naiveMDEF(pts []window.Point, q window.Point, prm Params) bool {
	return naiveVerdict(pts, naiveOccupancy(pts, prm.AlphaR), q, prm)
}

// naiveBruteForce flags every point of pts as naiveMDEF does, building
// the cell occupancies once.
func naiveBruteForce(pts []window.Point, prm Params) []bool {
	occ := naiveOccupancy(pts, prm.AlphaR)
	out := make([]bool, len(pts))
	for i, q := range pts {
		out[i] = naiveVerdict(pts, occ, q, prm)
	}
	return out
}

// naiveCellKey formats integer cell coordinates as "c0,c1,…,".
func naiveCellKey(coords []int) string {
	var k string
	for _, c := range coords {
		k += fmt.Sprintf("%d,", c)
	}
	return k
}

// naiveOccupancy counts the points of pts per domain-aligned cell of side
// 2αr.
func naiveOccupancy(pts []window.Point, alphaR float64) map[string]float64 {
	w := 2 * alphaR
	occ := map[string]float64{}
	for _, p := range pts {
		coords := make([]int, len(p))
		for i, x := range p {
			coords[i] = int(math.Floor(x / w))
		}
		occ[naiveCellKey(coords)]++
	}
	return occ
}

// naiveVerdict is the MDEF criterion for q against pts, whose cell
// occupancies are occ.
func naiveVerdict(pts []window.Point, occ map[string]float64, q window.Point, prm Params) bool {
	w := 2 * prm.AlphaR
	d := len(q)
	np := float64(distance.CountNaive(pts, q, prm.AlphaR))

	firsts := make([]int, d)
	lasts := make([]int, d)
	for i := range q {
		firsts[i] = int(math.Floor((q[i] - prm.R) / w))
		lasts[i] = int(math.Ceil((q[i]+prm.R)/w)) - 1
		if lasts[i] < firsts[i] {
			lasts[i] = firsts[i]
		}
	}
	coords := make([]int, d)
	var counts []float64
	var walk func(dim int)
	walk = func(dim int) {
		if dim == d {
			if c := occ[naiveCellKey(coords)]; c > 0 {
				counts = append(counts, c)
			}
			return
		}
		for c := firsts[dim]; c <= lasts[dim]; c++ {
			coords[dim] = c
			walk(dim + 1)
		}
	}
	walk(0)

	var sum, sumSq float64
	for _, c := range counts {
		sum += c
		sumSq += c * c
	}
	if sum <= 0 {
		return false
	}
	avg := sumSq / sum
	var devSq float64
	for _, c := range counts {
		dev := c - avg
		devSq += c * dev * dev
	}
	v := devSq / sum
	if v < 0 {
		v = 0
	}
	sig := math.Sqrt(v)
	return 1-np/avg > prm.KSigma*(sig/avg)
}
