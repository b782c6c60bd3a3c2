// Package divergence implements the distance between density models the
// paper uses to (a) evaluate estimation accuracy (Figure 6), (b) gate
// global-model updates in MGDD (Section 8.1), and (c) detect faulty
// sensors (Section 9). KL-divergence is undefined when one model assigns
// zero mass where the other does not — which kernel models routinely do —
// so, following Section 6, the Jensen-Shannon divergence
//
//	JS(p,q) = ½·D(p ‖ avg(p,q)) + ½·D(q ‖ avg(p,q))
//
// is evaluated on a finite grid of intervals b_1..b_k (Equation 8).
// With base-2 logarithms JS ranges over [0,1], matching the paper's
// "distance ranges from 0 to 1".
package divergence

import (
	"fmt"
	"math"
)

// Model is any density model that can report the probability mass of an
// axis-aligned box. kernel.Estimator, histogram.EquiDepth, histogram.Grid,
// and the analytic references in this package all satisfy it.
type Model interface {
	Dim() int
	ProbBox(lo, hi []float64) float64
}

// JS returns the Jensen-Shannon divergence between two models over the
// unit domain [0,1]^d, discretized into gridPoints intervals per
// dimension. Both models must share the same dimensionality. The result is
// in [0,1] (base-2 logarithms). Time complexity is O(k^d) box queries,
// i.e. the paper's O(dk|R|) for kernel models.
func JS(p, q Model, gridPoints int) float64 {
	pp, qq := gridMasses(p, q, gridPoints)
	return 0.5*klTo(pp, qq) + 0.5*klTo(qq, pp)
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

func clampMass(m float64) float64 {
	if math.IsNaN(m) || m < 0 {
		return 0
	}
	return m
}

// normalize rescales masses to sum to one so that truncation outside the
// grid does not bias the divergence. All-zero vectors are left alone.
func normalize(m []float64) {
	sum := 0.0
	for _, x := range m {
		sum += x
	}
	if sum <= 0 {
		return
	}
	for i := range m {
		m[i] /= sum
	}
}

// klTo computes D(a ‖ avg(a,b)) with base-2 logarithms; 0·log0 terms are
// zero by convention.
func klTo(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		if a[i] <= 0 {
			continue
		}
		avg := (a[i] + b[i]) / 2
		sum += a[i] * (math.Log2(a[i]) - math.Log2(avg))
	}
	if sum < 0 {
		// Tiny negative values can arise from floating-point rounding.
		return 0
	}
	return sum
}

// gridMasses evaluates both models' normalized interval masses on the
// unit-domain grid.
func gridMasses(p, q Model, gridPoints int) (pp, qq []float64) {
	if p.Dim() != q.Dim() {
		panic(fmt.Sprintf("divergence: model dims %d vs %d", p.Dim(), q.Dim()))
	}
	if gridPoints <= 0 {
		panic(fmt.Sprintf("divergence: gridPoints %d must be positive", gridPoints))
	}
	d := p.Dim()
	pp = make([]float64, 0, pow(gridPoints, d))
	qq = make([]float64, 0, pow(gridPoints, d))
	lo := make([]float64, d)
	hi := make([]float64, d)
	var walk func(dim int)
	walk = func(dim int) {
		if dim == d {
			pp = append(pp, clampMass(p.ProbBox(lo, hi)))
			qq = append(qq, clampMass(q.ProbBox(lo, hi)))
			return
		}
		w := 1.0 / float64(gridPoints)
		for c := 0; c < gridPoints; c++ {
			lo[dim] = float64(c) * w
			hi[dim] = float64(c+1) * w
			walk(dim + 1)
		}
	}
	walk(0)
	normalize(pp)
	normalize(qq)
	return pp, qq
}

// FuncModel adapts an analytic box-probability function into a Model; the
// Figure 6 experiment uses it to wrap the true generating distribution.
type FuncModel struct {
	Dims int
	Fn   func(lo, hi []float64) float64
}

// Dim returns the model's dimensionality.
func (f FuncModel) Dim() int { return f.Dims }

// ProbBox delegates to the wrapped function.
func (f FuncModel) ProbBox(lo, hi []float64) float64 { return f.Fn(lo, hi) }

// Gaussian1D returns an analytic 1-d Gaussian Model with the given mean
// and standard deviation (truncated to whatever grid it is queried on).
func Gaussian1D(mu, sigma float64) FuncModel {
	cdf := func(x float64) float64 {
		return 0.5 * (1 + math.Erf((x-mu)/(sigma*math.Sqrt2)))
	}
	return FuncModel{Dims: 1, Fn: func(lo, hi []float64) float64 {
		if hi[0] <= lo[0] {
			return 0
		}
		return cdf(hi[0]) - cdf(lo[0])
	}}
}

// Mixture1D returns an analytic 1-d Model that is a weighted mixture of
// Gaussian components plus a uniform component on [noiseLo, noiseHi] with
// weight noiseW. It matches the synthetic dataset generator, giving the
// experiments an exact reference distribution.
func Mixture1D(means, sigmas, weights []float64, noiseLo, noiseHi, noiseW float64) FuncModel {
	if len(means) != len(sigmas) || len(means) != len(weights) {
		panic("divergence: mixture parameter lengths differ")
	}
	comps := make([]FuncModel, len(means))
	for i := range means {
		comps[i] = Gaussian1D(means[i], sigmas[i])
	}
	return FuncModel{Dims: 1, Fn: func(lo, hi []float64) float64 {
		if hi[0] <= lo[0] {
			return 0
		}
		mass := 0.0
		for i, c := range comps {
			mass += weights[i] * c.Fn(lo, hi)
		}
		if noiseW > 0 && noiseHi > noiseLo {
			ol := math.Max(lo[0], noiseLo)
			oh := math.Min(hi[0], noiseHi)
			if oh > ol {
				mass += noiseW * (oh - ol) / (noiseHi - noiseLo)
			}
		}
		return mass
	}}
}
