package mdef

import (
	"fmt"
	"math"
)

// MultiParams configures the full multi-granularity LOCI scan [36] that
// the paper's fixed-radius MGDD simplifies: the MDEF criterion is tested
// over a ladder of sampling radii from RMin to RMax (geometric steps of
// RStep), with the counting radius fixed at Alpha times the sampling
// radius, and a point is flagged when the criterion fires at any
// granularity. Scanning radii is what lets the criterion detect outliers
// whose deviation only shows at a particular scale — e.g. the engine
// example of the paper's introduction, where a part may be overheated
// relative to its assembly but not relative to the whole machine.
type MultiParams struct {
	RMin, RMax float64
	RStep      float64 // multiplicative step between radii (>1)
	Alpha      float64 // counting radius = Alpha·r (LOCI recommends ≤ 1/4)
	KSigma     float64
}

// Validate returns an error when the configuration is unusable.
func (p MultiParams) Validate() error {
	if p.RMin <= 0 || math.IsNaN(p.RMin) {
		return fmt.Errorf("mdef: rmin %v must be positive", p.RMin)
	}
	if p.RMax < p.RMin {
		return fmt.Errorf("mdef: rmax %v below rmin %v", p.RMax, p.RMin)
	}
	if p.RStep <= 1 || math.IsNaN(p.RStep) {
		return fmt.Errorf("mdef: rstep %v must exceed 1", p.RStep)
	}
	if p.Alpha <= 0 || p.Alpha > 1 {
		return fmt.Errorf("mdef: alpha %v must be in (0,1]", p.Alpha)
	}
	if p.KSigma <= 0 || math.IsNaN(p.KSigma) {
		return fmt.Errorf("mdef: k_sigma %v must be positive", p.KSigma)
	}
	return nil
}

// Radii enumerates the scanned sampling radii.
func (p MultiParams) Radii() []float64 {
	var out []float64
	for r := p.RMin; r <= p.RMax*(1+1e-12); r *= p.RStep {
		out = append(out, r)
	}
	return out
}

// MultiResult reports the scan outcome: the most deviant granularity and
// its statistics.
type MultiResult struct {
	Outlier bool
	BestR   float64 // radius with the largest criterion margin
	Best    Result  // statistics at BestR
}

// EvaluateMulti runs the multi-granularity scan of p against model m.
func EvaluateMulti(m Counter, p []float64, prm MultiParams) MultiResult {
	if err := prm.Validate(); err != nil {
		panic(err)
	}
	out := MultiResult{BestR: prm.RMin}
	bestMargin := math.Inf(-1)
	for _, r := range prm.Radii() {
		res := Evaluate(m, p, Params{R: r, AlphaR: prm.Alpha * r, KSigma: prm.KSigma})
		margin := res.MDEF - float64(prm.KSigma*res.SigMDEF)
		if res.AvgN > 0 && margin > bestMargin {
			bestMargin = margin
			out.BestR = r
			out.Best = res
		}
		if res.Outlier {
			out.Outlier = true
		}
	}
	return out
}

// IsOutlierMulti reports whether p deviates at any scanned granularity.
func IsOutlierMulti(m Counter, p []float64, prm MultiParams) bool {
	return EvaluateMulti(m, p, prm).Outlier
}
