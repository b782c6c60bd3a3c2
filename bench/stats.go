package main

import "math"

// percentile is the nearest-rank p-quantile (0 < p ≤ 1) of an ascending
// slice: the smallest value with at least p·n values at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// supported reports whether n samples carry the p-quantile: a tail
// percentile is only reported with at least ten samples beyond it.
func supported(n int, p float64) bool {
	k := int(math.Ceil(p * float64(n)))
	return n-k >= 10
}
