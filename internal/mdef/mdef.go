// Package mdef implements local-metrics outlier detection with the Multi
// Granularity Deviation Factor (Papadimitriou et al.'s LOCI/aLOCI [36]),
// the second detection method the paper's framework hosts (Sections 3
// and 8).
//
// For a point p, sampling-neighborhood radius r and counting-neighborhood
// radius αr:
//
//	n(p,αr)  — number of window values within L∞ distance αr of p
//	n̂(p,r,α) — average of n(q,αr) over values q within r of p
//	MDEF     = 1 − n(p,αr)/n̂(p,r,α)
//	σ_MDEF   = σ_n̂(p,r,α)/n̂(p,r,α)
//
// and p is flagged when MDEF > k_σ·σ_MDEF (Equation 9; k_σ = 3 throughout
// the paper's experiments).
//
// Following aLOCI and the paper's Figure 3, the sampling-neighborhood
// statistics are approximated on a domain-aligned grid of cells of side
// 2αr: each value q in cell i has n(q,αr) ≈ c_i, so the count-weighted
// aggregates are n̂ = Σc_i²/Σc_i and σ²_n̂ = Σc_i(c_i−n̂)²/Σc_i over the
// cells intersecting [p−r, p+r]. The online detector obtains both n(p,αr)
// and the cell counts c_i from a density model via range queries
// (kernel estimator in the paper's method; its 1-d cost is the
// O((log|R|+|R'|)/2αr) of Theorem 4); the ground-truth BruteForce-M uses
// exact counts over the window, kept by DynTruth on the same cell grid.
//
// A product that feeds a sum is written float64(x*y), a rounding the Go
// spec forbids the compiler to fuse into a multiply-add, so every
// architecture computes what amd64 does, bit for bit (DESIGN.md §7).
package mdef

import (
	"fmt"
	"math"

	"odds/internal/window"
)

// Counter is the estimated-count interface MDEF evaluation needs; it is
// satisfied by kernel.Estimator, histogram.EquiDepth and histogram.Grid.
type Counter interface {
	Dim() int
	CountBox(lo, hi []float64) float64
}

// Params configures MDEF detection. The paper's synthetic experiments use
// R=0.08, AlphaR=0.01; the real datasets R=0.05, AlphaR=0.003; KSigma=3
// throughout.
type Params struct {
	R      float64 // sampling neighborhood radius
	AlphaR float64 // counting neighborhood radius (αr)
	KSigma float64 // significance factor k_σ
}

// Validate returns an error when the parameters are unusable.
func (p Params) Validate() error {
	if !(p.R > 0) || math.IsInf(p.R, 1) {
		return fmt.Errorf("mdef: sampling radius %v must be positive and finite", p.R)
	}
	if p.AlphaR <= 0 || math.IsNaN(p.AlphaR) {
		return fmt.Errorf("mdef: counting radius %v must be positive", p.AlphaR)
	}
	if p.AlphaR > p.R {
		return fmt.Errorf("mdef: counting radius %v exceeds sampling radius %v", p.AlphaR, p.R)
	}
	if !(p.KSigma > 0) || math.IsInf(p.KSigma, 1) {
		return fmt.Errorf("mdef: k_sigma %v must be positive and finite", p.KSigma)
	}
	return nil
}

// Result carries the deviation factor, its normalized deviation, and the
// flag decision for one point.
type Result struct {
	MDEF    float64
	SigMDEF float64
	Count   float64 // n(p, αr)
	AvgN    float64 // n̂(p, r, α)
	Outlier bool
}

// cellStats aggregates the count-weighted mean and deviation of cell
// counts c_i over cells intersecting the sampling neighborhood.
func cellStats(counts []float64) (avg, sigma float64) {
	var sum, sumSq float64
	for _, c := range counts {
		sum += c
		sumSq += float64(c * c)
	}
	if sum <= 0 {
		return 0, 0
	}
	avg = sumSq / sum // Σc_i·c_i / Σc_i
	var devSq float64
	for _, c := range counts {
		d := c - avg
		devSq += float64(c * d * d)
	}
	v := devSq / sum
	if v < 0 {
		v = 0
	}
	return avg, math.Sqrt(v)
}

// cellRange returns the domain-aligned cell index range [first, last]
// (cells of width 2αr) intersecting [lo, hi].
func cellRange(lo, hi, alphaR float64) (int, int) {
	w := 2 * alphaR
	first := int(math.Floor(lo / w))
	last := int(math.Ceil(hi/w)) - 1
	if last < first {
		last = first
	}
	return first, last
}

// nextCell steps idx through the cell box [firsts, lasts] as an odometer,
// last dimension fastest (lexicographic order), and reports false once it
// has wrapped back to firsts.
func nextCell(idx, firsts, lasts []int) bool {
	for k := len(idx) - 1; k >= 0; k-- {
		idx[k]++
		if idx[k] <= lasts[k] {
			return true
		}
		idx[k] = firsts[k]
	}
	return false
}

// Evaluator carries reusable scratch for repeated MDEF evaluations so the
// steady-state per-arrival cost allocates nothing. The zero value is
// ready to use. An Evaluator is single-goroutine-owned (its scratch
// mutates on every call); the Counter it evaluates against may change
// between calls, since the scratch is model-independent.
type Evaluator struct {
	lo, hi        []float64
	firsts, lasts []int
	idx           []int
	counts        []float64
}

// size grows the per-dimension scratch to d.
func (ev *Evaluator) size(d int) {
	if cap(ev.lo) < d {
		ev.lo = make([]float64, d)
		ev.hi = make([]float64, d)
		ev.firsts = make([]int, d)
		ev.lasts = make([]int, d)
		ev.idx = make([]int, d)
	}
	ev.lo, ev.hi = ev.lo[:d], ev.hi[:d]
	ev.firsts, ev.lasts, ev.idx = ev.firsts[:d], ev.lasts[:d], ev.idx[:d]
}

// Evaluate computes the MDEF statistics of p against the density model m.
// The model's CountBox answers play the role of the interval counts of
// Figure 3.
func (ev *Evaluator) Evaluate(m Counter, p window.Point, prm Params) Result {
	if err := prm.Validate(); err != nil {
		panic(err)
	}
	d := m.Dim()
	if len(p) != d {
		panic(fmt.Sprintf("mdef: point dim %d, model dim %d", len(p), d))
	}
	ev.size(d)
	for i := range p {
		ev.lo[i] = p[i] - prm.AlphaR
		ev.hi[i] = p[i] + prm.AlphaR
	}
	np := m.CountBox(ev.lo, ev.hi)

	// Count the grid cells of side 2αr intersecting the sampling
	// neighborhood [p-r, p+r] one box at a time, in lexicographic order.
	for i := range p {
		ev.firsts[i], ev.lasts[i] = cellRange(p[i]-prm.R, p[i]+prm.R, prm.AlphaR)
	}
	w := 2 * prm.AlphaR
	copy(ev.idx, ev.firsts)
	ev.counts = ev.counts[:0]
	for more := true; more; more = nextCell(ev.idx, ev.firsts, ev.lasts) {
		for i, k := range ev.idx {
			ev.lo[i] = float64(k) * w
			ev.hi[i] = ev.lo[i] + w
		}
		if c := m.CountBox(ev.lo, ev.hi); c > 0 {
			ev.counts = append(ev.counts, c)
		}
	}

	avg, sig := cellStats(ev.counts)
	res := Result{Count: np, AvgN: avg}
	if avg <= 0 {
		// No mass in the sampling neighborhood: nothing to deviate from.
		return res
	}
	res.MDEF = 1 - np/avg
	res.SigMDEF = sig / avg
	res.Outlier = res.MDEF > prm.KSigma*res.SigMDEF
	return res
}

// IsOutlier reports whether p is an MDEF outlier under model m.
func (ev *Evaluator) IsOutlier(m Counter, p window.Point, prm Params) bool {
	return ev.Evaluate(m, p, prm).Outlier
}

// Evaluate computes the MDEF statistics of p against the density model m
// with one-shot scratch. Hot loops should hold an Evaluator instead.
func Evaluate(m Counter, p window.Point, prm Params) Result {
	var ev Evaluator
	return ev.Evaluate(m, p, prm)
}

// IsOutlier reports whether p is an MDEF outlier under model m.
func IsOutlier(m Counter, p window.Point, prm Params) bool {
	return Evaluate(m, p, prm).Outlier
}

// BruteForce flags every point of pts with exact counts: the counting
// neighborhood n(p,αr) is an exact box count and the sampling-neighborhood
// aggregates use exact domain-aligned cell occupancies — the BruteForce-M
// ground truth of Section 10. It loads every point into one DynTruth and
// evaluates each against the whole set.
func BruteForce(pts []window.Point, prm Params) []bool {
	out := make([]bool, len(pts))
	for i, res := range evaluateAll(pts, prm) {
		out[i] = res.Outlier
	}
	return out
}

// evaluateAll returns the exact MDEF statistics of every point of pts
// against the whole set. It panics on unusable parameters, even for an
// empty set.
func evaluateAll(pts []window.Point, prm Params) []Result {
	if err := prm.Validate(); err != nil {
		panic(err)
	}
	if len(pts) == 0 {
		return nil
	}
	truth := NewDynTruth(prm, len(pts[0]))
	for _, p := range pts {
		truth.Add(p)
	}
	res := make([]Result, len(pts))
	for i, p := range pts {
		res[i] = truth.Evaluate(p)
	}
	return res
}

// CalibrateKSigma searches for the significance factor k_σ at which the
// exact MDEF criterion yields between targetLo and targetHi outliers on a
// reference window of the workload. The paper uses k_σ = 3 throughout;
// with the published (r, αr) and a strict aLOCI estimator that setting
// yields no outliers on the synthetic workload (see EXPERIMENTS.md), so
// the harness calibrates k_σ once per workload and uses the same value for
// the detector and its ground truth — the precision/recall comparison is
// unaffected. If k_σ = 3 already yields at least targetLo outliers it is
// kept. MDEF and σ_MDEF do not depend on k_σ, so every point is evaluated
// once and each bisection step only recounts MDEF > k_σ·σ_MDEF.
func CalibrateKSigma(pts []window.Point, prm Params, targetLo, targetHi int) float64 {
	if targetLo <= 0 || targetHi < targetLo {
		panic(fmt.Sprintf("mdef: bad calibration target [%d,%d]", targetLo, targetHi))
	}
	prm.KSigma = 3 // any valid k_σ: the statistics kept do not depend on it
	res := evaluateAll(pts, prm)
	count := func(k float64) int {
		n := 0
		for _, r := range res {
			if r.MDEF > k*r.SigMDEF {
				n++
			}
		}
		return n
	}
	if count(3) >= targetLo {
		return 3
	}
	lo, hi := 0.05, 3.0 // count decreases as k grows
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		n := count(mid)
		switch {
		case n < targetLo:
			hi = mid
		case n > targetHi:
			lo = mid
		default:
			return mid
		}
	}
	return (lo + hi) / 2
}
