// Package stats provides the descriptive statistics, streaming moment
// accumulators, and seeded random-number utilities used throughout the
// reproduction. The paper reports min, max, mean, median, standard
// deviation, and skew for each dataset (Figure 5); this package computes
// those measures both over static slices and incrementally over streams.
//
// A product that feeds a sum is written float64(x*y), a rounding the Go
// spec forbids the compiler to fuse into a multiply-add, so every
// architecture computes what amd64 does, bit for bit (DESIGN.md §7).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one observation.
var ErrEmpty = errors.New("stats: empty input")

// Summary holds the descriptive statistics the paper reports per dataset
// (Figure 5).
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	StdDev float64
	Skew   float64
}

// Describe computes a Summary over xs. It returns ErrEmpty when xs has no
// elements. The skew is the standardized third moment, matching the
// convention of the statistics the paper tabulates.
func Describe(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var m Moments
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		m.Add(x)
	}
	s.Mean = m.Mean()
	s.StdDev = m.StdDev()
	s.Skew = m.Skew()
	s.Median = Median(xs)
	return s, nil
}

// Median returns the median of xs without modifying it. It returns NaN for
// empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th quantile of xs (0 ≤ q ≤ 1) using linear
// interpolation between closest ranks. xs is not modified. It returns NaN
// for empty input or q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile for inputs already in ascending order. It
// avoids the copy-and-sort, which matters for repeated quantile probes
// (e.g. building equi-depth histograms).
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := float64(pos) - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Moments accumulates count, mean, variance, and skewness in one pass using
// the numerically stable online update of the second and third central
// moments. The zero value is ready to use.
type Moments struct {
	n  int
	mu float64
	m2 float64
	m3 float64
}

// Add folds one observation into the accumulator.
func (m *Moments) Add(x float64) {
	n0 := float64(m.n)
	m.n++
	n := float64(m.n)
	delta := x - m.mu
	deltaN := delta / n
	term1 := float64(delta * deltaN * n0)
	m.mu += deltaN
	m.m3 += float64(term1*deltaN*(n-2)) - float64(3*deltaN*m.m2)
	m.m2 += term1
}

// N returns the number of observations added.
func (m *Moments) N() int { return m.n }

// Mean returns the running mean, or NaN when no observations were added.
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.mu
}

// Variance returns the population variance (dividing by n), matching the
// estimator the paper's variance sketch maintains. NaN when empty.
func (m *Moments) Variance() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	return m.m2 / float64(m.n)
}

// SampleVariance returns the unbiased sample variance (dividing by n-1).
// NaN when fewer than two observations were added.
func (m *Moments) SampleVariance() float64 {
	if m.n < 2 {
		return math.NaN()
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the population standard deviation. NaN when empty.
func (m *Moments) StdDev() float64 {
	v := m.Variance()
	if math.IsNaN(v) {
		return v
	}
	return math.Sqrt(v)
}

// Skew returns the standardized skewness g1 = m3 / m2^(3/2) (population
// convention). It returns 0 when the variance is zero and NaN when empty.
func (m *Moments) Skew() float64 {
	if m.n == 0 {
		return math.NaN()
	}
	if m.m2 == 0 {
		return 0
	}
	n := float64(m.n)
	return math.Sqrt(n) * m.m3 / math.Pow(m.m2, 1.5)
}
