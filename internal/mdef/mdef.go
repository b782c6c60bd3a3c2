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
// exact counts over the window.
package mdef

import (
	"fmt"
	"math"

	"odds/internal/distance"
	"odds/internal/window"
)

// Counter is the estimated-count interface MDEF evaluation needs; it is
// satisfied by kernel.Estimator, histogram.EquiDepth and histogram.Grid.
type Counter interface {
	Dim() int
	CountBox(lo, hi []float64) float64
}

// BoxBatcher is the optional batching extension of Counter: models that
// answer many box queries in one call (kernel.Estimator, CachedCounter)
// let MDEF evaluation amortize per-query call overhead.
// Batched answers must be bit-identical to per-call CountBox.
type BoxBatcher interface {
	CountBoxBatch(los, his [][]float64, out []float64) []float64
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
		sumSq += c * c
	}
	if sum <= 0 {
		return 0, 0
	}
	avg = sumSq / sum // Σc_i·c_i / Σc_i
	var devSq float64
	for _, c := range counts {
		d := c - avg
		devSq += c * d * d
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
	flat          []float64 // backing array for the batched cell boxes
	los, his      [][]float64
	batch         []float64
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
// Figure 3. Cell queries go through one CountBoxBatch call when the model
// supports batching; results are bit-identical either way.
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

	// Enumerate grid cells of side 2αr intersecting the sampling
	// neighborhood [p-r, p+r], materializing every cell box into the
	// reusable backing in lexicographic order (the order the recursive
	// walk used before batching).
	total := 1
	for i := range p {
		ev.firsts[i], ev.lasts[i] = cellRange(p[i]-prm.R, p[i]+prm.R, prm.AlphaR)
		total *= ev.lasts[i] - ev.firsts[i] + 1
	}
	w := 2 * prm.AlphaR
	if need := 2 * total * d; cap(ev.flat) < need {
		ev.flat = make([]float64, need)
	}
	flat := ev.flat[:2*total*d]
	if cap(ev.los) < total {
		ev.los = make([][]float64, total)
		ev.his = make([][]float64, total)
	}
	ev.los, ev.his = ev.los[:total], ev.his[:total]
	copy(ev.idx, ev.firsts)
	for c := 0; c < total; c++ {
		lo := flat[2*c*d : 2*c*d+d]
		hi := flat[2*c*d+d : 2*(c+1)*d]
		for i, k := range ev.idx {
			lo[i] = float64(k) * w
			hi[i] = lo[i] + w
		}
		ev.los[c], ev.his[c] = lo, hi
		nextCell(ev.idx, ev.firsts, ev.lasts)
	}

	if b, ok := m.(BoxBatcher); ok {
		ev.batch = b.CountBoxBatch(ev.los, ev.his, ev.batch)
	} else {
		ev.batch = ev.batch[:0]
		for c := range ev.los {
			ev.batch = append(ev.batch, m.CountBox(ev.los[c], ev.his[c]))
		}
	}
	ev.counts = ev.counts[:0]
	for _, c := range ev.batch {
		if c > 0 {
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
// ground truth of Section 10.
func BruteForce(pts []window.Point, prm Params) []bool {
	if err := prm.Validate(); err != nil {
		panic(err)
	}
	out := make([]bool, len(pts))
	if len(pts) == 0 {
		return out
	}
	d := len(pts[0])
	w := 2 * prm.AlphaR

	// Exact occupancy per domain-aligned cell.
	occ := make(map[string]float64)
	coords := make([]int, d)
	key := func() string {
		b := make([]byte, 0, len(coords)*5)
		for _, c := range coords {
			u := uint32(c<<1) ^ uint32(c>>31)
			b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24), ',')
		}
		return string(b)
	}
	for _, p := range pts {
		if len(p) != d {
			panic(fmt.Sprintf("mdef: ragged point dims %d vs %d", len(p), d))
		}
		for i, x := range p {
			coords[i] = int(math.Floor(x / w))
		}
		occ[key()]++
	}

	idx := distance.NewIndex(pts, prm.AlphaR)
	firsts := make([]int, d)
	lasts := make([]int, d)
	for i, p := range pts {
		np := float64(idx.Count(p, prm.AlphaR))
		for j := range p {
			firsts[j], lasts[j] = cellRange(p[j]-prm.R, p[j]+prm.R, prm.AlphaR)
		}
		var counts []float64
		var walk func(dim int)
		walk = func(dim int) {
			if dim == d {
				if c := occ[key()]; c > 0 {
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
		avg, sig := cellStats(counts)
		if avg <= 0 {
			continue
		}
		md := 1 - np/avg
		out[i] = md > prm.KSigma*(sig/avg)
	}
	return out
}

// Outliers returns the subset of pts flagged by BruteForce, preserving
// order.
func Outliers(pts []window.Point, prm Params) []window.Point {
	flags := BruteForce(pts, prm)
	var out []window.Point
	for i, f := range flags {
		if f {
			out = append(out, pts[i])
		}
	}
	return out
}

// CalibrateKSigma searches for the significance factor k_σ at which the
// exact MDEF criterion yields between targetLo and targetHi outliers on a
// reference window of the workload. The paper uses k_σ = 3 throughout;
// with the published (r, αr) and a strict aLOCI estimator that setting
// yields no outliers on the synthetic workload (see EXPERIMENTS.md), so
// the harness calibrates k_σ once per workload and uses the same value for
// the detector and its ground truth — the precision/recall comparison is
// unaffected. If k_σ = 3 already yields at least targetLo outliers it is
// kept.
func CalibrateKSigma(pts []window.Point, prm Params, targetLo, targetHi int) float64 {
	if targetLo <= 0 || targetHi < targetLo {
		panic(fmt.Sprintf("mdef: bad calibration target [%d,%d]", targetLo, targetHi))
	}
	count := func(k float64) int {
		p := prm
		p.KSigma = k
		return len(Outliers(pts, p))
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
