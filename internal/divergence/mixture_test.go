package divergence

import "math"

// Mixture1D returns an analytic 1-d Model that is a weighted mixture of
// Gaussian components plus a uniform component on [noiseLo, noiseHi] with
// weight noiseW. It matches the synthetic dataset generator, giving the
// tests an exact reference distribution.
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
