// Package kernel implements the paper's core contribution substrate: an
// Epanechnikov kernel density estimator over a sample R of the sliding
// window (Section 4), with analytic box-probability queries that answer
// range queries N(p,r) = P[p-r,p+r]·|W| in O(d|R|) time (Theorem 2), and a
// sorted pruning fast path, generalized from the paper's 1-d remark to any
// dimension, that touches only the kernels intersecting the query box:
// O(log|R| + |R'|) per dimension scanned.
//
// Values must be normalized to [0,1]^d. Each sample point t contributes a
// product kernel
//
//	k(x) = (3/4)^d · (1/ΠB_i) · Π (1 - ((x_i-t_i)/B_i)^2)   for |x_i-t_i| ≤ B_i
//
// whose per-dimension integral is the cubic
// K(u) = 0.75·(u - u³/3) + 0.5 on u ∈ [-1,1], making box probabilities
// exact and cheap — the property the paper exploits for online operation.
//
// Bandwidths follow Scott's rule (the single parameter the method
// estimates): B_i = √5 · σ_i · |R|^(-1/(d+4)), with σ_i supplied by the
// sliding-window variance sketch.
//
// # Query engine layout
//
// An Estimator stores its centers once, as per-dimension columns
// (structure of arrays) in one scan order. When one dimension is
// selective — its bandwidth is small against the spread of its
// coordinates — the scan order is ascending in that dimension, and every
// query binary-searches the sorted column for the candidate run
// [lo−B, hi+B): centers outside the run contribute exactly zero mass, so
// skipping them leaves results bit-identical to the full scan
// (ProbBoxNaive) over the same order. When no dimension is selective the
// estimator falls back to the plain full scan.
//
// Every estimator is maintained: each center belongs to a sample slot,
// and its owner patches the layout in place as slots change (see
// maintain.go). New is the one-shot form, slots 0..n−1 of an n-slot model.
//
// # Queries
//
// The model answers its own queries: Prob, Count, ProbBox, CountBox and
// Density. None allocates for d ≤ 8 (centered boxes live on the stack).
// Any number of goroutines may query one model at once while its owner
// neither patches nor rescales it; Clone gives a snapshot that outlives
// the owner's next patch.
//
// A product that feeds a sum is written float64(x*y), a rounding the Go
// spec forbids the compiler to fuse into a multiply-add, so every
// architecture computes what amd64 does, bit for bit (DESIGN.md §7).
package kernel

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"odds/internal/window"
)

// minBandwidth guards against degenerate (zero-variance) dimensions; a
// kernel narrower than this behaves as a point mass on the [0,1] domain.
const minBandwidth = 1e-9

// maxStackDim bounds the dimensionality for which centered-box queries
// build their boxes on the stack; larger (unrealistic) dimensionalities
// fall back to heap scratch.
const maxStackDim = 8

// ErrNoSample is returned when constructing an estimator from an empty
// sample.
var ErrNoSample = errors.New("kernel: empty sample")

// Bandwidths applies Scott's rule to per-dimension standard deviations:
// B_i = √5 · σ_i · n^(-1/(d+4)) where n is the sample size and d the
// dimensionality. Non-finite (NaN or ±Inf) or non-positive σ fall back to
// minBandwidth — an infinite σ from an overflowed variance sketch would
// otherwise produce an infinite bandwidth that passes the lower-bound
// clamp and silently flattens every query to zero mass.
func Bandwidths(sigmas []float64, n int) []float64 {
	return BandwidthsInto(nil, sigmas, n)
}

// BandwidthsInto is Bandwidths writing into dst (grown as needed) so the
// frequent rebuild paths — detector model maintenance, global-model
// refreshes — compute bandwidths without allocating. The returned slice
// is dst resliced to len(sigmas).
func BandwidthsInto(dst, sigmas []float64, n int) []float64 {
	d := len(sigmas)
	if cap(dst) < d {
		dst = make([]float64, d)
	}
	dst = dst[:d]
	if n <= 0 {
		n = 1
	}
	factor := math.Sqrt(5) * math.Pow(float64(n), -1/float64(d+4))
	for i, s := range sigmas {
		b := s * factor
		if math.IsNaN(b) || math.IsInf(b, 0) || b < minBandwidth {
			b = minBandwidth
		}
		dst[i] = b
	}
	return dst
}

// Estimator is a kernel density model: a set of centers (the sample R),
// per-dimension bandwidths, and the window count |W| that range queries
// scale probabilities by. Its owner patches it in place as the sample
// changes (BeginMaintain/SetSlot/FinishMaintain, maintain.go): between
// patches it answers exactly like a from-scratch New over the same live
// sample, Gen advances on every change, and Clone gives a frozen copy for
// callers that keep it across patches.
type Estimator struct {
	bw     []float64
	wcount float64
	dim    int

	// cols is the structure-of-arrays center layout: cols[i][j] is
	// dimension i of the j-th physical entry in scan order. The columns
	// are the only copy of the centers.
	cols [][]float64

	// pruneDim is the dimension whose ascending-sorted column drives
	// range pruning, or -1 when no dimension is selective enough for
	// pruning to pay (the full-scan fallback). When pruneDim >= 0 the
	// scan order is ascending in that dimension.
	pruneDim int

	// live is the number of centers contributing mass: the physical
	// entries less the tombstones. Query sums divide by live, never by
	// the physical length.
	live int

	// dead flags tombstoned physical entries; len(dead) is the physical
	// length. A dead entry keeps its prune-column coordinate — so the
	// column stays sorted and binary searches stay valid — but is skipped
	// by every scan, contributing exactly nothing.
	dead []bool

	// gen counts in-place mutations (maintenance patches and window-count
	// rescales) so callers caching derived state keyed by the model
	// pointer can detect that the pointed-to model changed underneath
	// them.
	gen uint64

	// mnt is the slot bookkeeping behind in-place patches.
	mnt maint
}

// New constructs an estimator from sample centers, per-dimension
// bandwidths, and the effective window count |W| used to scale range
// queries into neighbor counts: NewMaintained over slots 0..n−1 of an
// n-slot model. The centers are copied.
//
// The layout comes from one maintenance cycle on an empty model: the
// centers are inserted in slot order, and when a prune dimension is
// selected (see the package comment) the finishing relayout sorts them by
// (coordinate, slot), so Centers, the wire format, and every query path
// observe one consistent order.
func New(centers []window.Point, bandwidths []float64, windowCount float64) (*Estimator, error) {
	slots := make([]int, len(centers))
	for i := range slots {
		slots[i] = i
	}
	return NewMaintained(centers, slots, len(centers), bandwidths, windowCount)
}

// decidePruneDim applies the selectivity rule to precomputed extremes.
func decidePruneDim(lo, hi, bw []float64) int {
	best, bestRatio := -1, math.Inf(1)
	for i := range bw {
		spread := hi[i] - lo[i]
		if spread <= 0 {
			continue
		}
		if ratio := bw[i] / spread; ratio < bestRatio {
			best, bestRatio = i, ratio
		}
	}
	if bestRatio >= 1 {
		return -1
	}
	return best
}

// FromSample builds an estimator directly from a sample and per-dimension
// standard deviations, applying Scott's rule for the bandwidths. This is
// the construction every sensor performs online: chain sample + variance
// sketch in, density model out.
func FromSample(pts []window.Point, sigmas []float64, windowCount float64) (*Estimator, error) {
	if len(pts) == 0 {
		return nil, ErrNoSample
	}
	if len(sigmas) != len(pts[0]) {
		return nil, fmt.Errorf("kernel: %d sigmas for %d dimensions", len(sigmas), len(pts[0]))
	}
	return New(pts, Bandwidths(sigmas, len(pts)), windowCount)
}

// SetWindowCount rescales the estimator's range queries by wc in place.
// The model pointer is unchanged; the generation counter advances so
// pointer-keyed caches of scaled counts know to invalidate.
func (e *Estimator) SetWindowCount(wc float64) {
	if wc <= 0 || math.IsNaN(wc) || math.IsInf(wc, 0) {
		panic(fmt.Sprintf("kernel: window count %v must be positive and finite", wc))
	}
	if wc == e.wcount {
		return
	}
	e.wcount = wc
	e.gen++
}

// Dim returns the dimensionality of the model.
func (e *Estimator) Dim() int { return e.dim }

// SampleSize returns |R|, the number of live kernel centers.
func (e *Estimator) SampleSize() int { return e.live }

// WindowCount returns |W|, the count range queries scale by.
func (e *Estimator) WindowCount() float64 { return e.wcount }

// Bandwidth returns the bandwidth of dimension i.
func (e *Estimator) Bandwidth(i int) float64 { return e.bw[i] }

// Centers returns freshly allocated copies of the live kernel centers in
// the estimator's scan order; the caller owns them.
func (e *Estimator) Centers() []window.Point {
	flat := make([]float64, e.live*e.dim)
	out := make([]window.Point, 0, e.live)
	for j, dead := range e.dead {
		if dead {
			continue
		}
		p := flat[len(out)*e.dim : (len(out)+1)*e.dim]
		for i, col := range e.cols {
			p[i] = col[j]
		}
		out = append(out, p)
	}
	return out
}

// Gen returns the mutation generation, incremented by every maintenance
// patch and in-place rescale. Callers caching state derived from a model
// pointer should key it by (pointer, Gen).
func (e *Estimator) Gen() uint64 { return e.gen }

// PruneDim returns the dimension driving sorted range pruning, or -1 when
// the estimator runs full scans (no dimension is selective).
func (e *Estimator) PruneDim() int { return e.pruneDim }

// pruneRun returns the candidate run of centers whose prune-dimension
// coordinate lies in [lo-B, hi+B): the first index (by binary search) and
// the exclusive upper coordinate bound hi+B. Scans start at first and
// stop at the first center whose prune coordinate reaches the bound —
// the sorted column makes that a linear scan-out, cheaper than a second
// binary search for the small runs selective queries produce. Centers
// outside the run place exactly zero mass on any box spanning [lo, hi]
// in that dimension, and exactly zero density at any point within
// [lo, hi].
func (e *Estimator) pruneRun(lo, hi float64) (first int, bound float64) {
	b := e.bw[e.pruneDim]
	return sort.SearchFloat64s(e.cols[e.pruneDim], lo-b), hi + b
}

// Density evaluates the estimated probability density f(x) (Equation 1).
// Points outside every kernel's support yield 0.
func (e *Estimator) Density(x window.Point) float64 {
	if len(x) != e.dim {
		panic(fmt.Sprintf("kernel: point dim %d, model dim %d", len(x), e.dim))
	}
	n := len(e.dead)
	first, bound := 0, math.Inf(1)
	var pruneCol []float64
	if k := e.pruneDim; k >= 0 {
		// A kernel contributes at x only when |x_k - t_k| < B_k, i.e. its
		// prune coordinate lies in (x_k-B, x_k+B) — the same run shape as a
		// degenerate box query.
		first, bound = e.pruneRun(x[k], x[k])
		pruneCol = e.cols[k]
	}
	sum := 0.0
	dead := e.dead
	for j := first; j < n; j++ {
		if pruneCol != nil && pruneCol[j] >= bound {
			break
		}
		if dead[j] {
			continue
		}
		term := 1.0
		for i := 0; i < e.dim; i++ {
			u := (x[i] - e.cols[i][j]) / e.bw[i]
			if u <= -1 || u >= 1 {
				term = 0
				break
			}
			term *= 0.75 * (1 - float64(u*u)) / e.bw[i]
		}
		sum += term
	}
	return sum / float64(e.live)
}

// epaCDF is the antiderivative of the unit Epanechnikov kernel (up to the
// +0.5 constant, which cancels in segment differences). A plain function,
// not a closure, so segment evaluation allocates nothing.
func epaCDF(u float64) float64 { return float64(0.75 * (u - u*u*u/3)) }

// epaCDFSegment integrates the unit Epanechnikov kernel over [u1, u2]
// (arguments already scaled and clipped to [-1,1]).
func epaCDFSegment(u1, u2 float64) float64 {
	return epaCDF(u2) - epaCDF(u1)
}

// intervalMass returns the mass one kernel centered at t with bandwidth b
// places on [lo, hi]. It is exactly zero whenever t ≤ lo-b or t ≥ hi+b —
// the property the pruned scan relies on to skip centers without changing
// the sum.
func intervalMass(t, b, lo, hi float64) float64 {
	u1 := (lo - t) / b
	u2 := (hi - t) / b
	if u1 >= 1 || u2 <= -1 || u2 <= u1 {
		return 0
	}
	if u1 < -1 {
		u1 = -1
	}
	if u2 > 1 {
		u2 = 1
	}
	return epaCDFSegment(u1, u2)
}

// ProbBox returns the estimated probability mass of the axis-aligned box
// [lo, hi] (Equation 5). Degenerate boxes (hi ≤ lo in any dimension)
// return 0.
func (e *Estimator) ProbBox(lo, hi []float64) float64 {
	if len(lo) != e.dim || len(hi) != e.dim {
		panic(fmt.Sprintf("kernel: box dims %d,%d, model dim %d", len(lo), len(hi), e.dim))
	}
	return e.probBox(lo, hi)
}

// probBox is the pruned scan shared by every query entry point. The
// per-center arithmetic — per-dimension interval masses multiplied in
// dimension order with an early zero exit — is identical to
// ProbBoxNaive's, and pruning skips only centers whose contribution is
// exactly zero, so the result is bit-identical to the full scan.
func (e *Estimator) probBox(lo, hi []float64) float64 {
	for i := range lo {
		if hi[i] <= lo[i] {
			return 0
		}
	}
	n := len(e.dead)
	dead := e.dead
	if e.dim == 1 {
		// Specialized 1-d scan: the run in the (only) column, summed with
		// one interval mass per center — the original Theorem 2 fast path.
		col := e.cols[0]
		b := e.bw[0]
		first, sum := 0, 0.0
		hiB := hi[0] + b
		if e.pruneDim == 0 {
			first = sort.SearchFloat64s(col, lo[0]-b)
		} else {
			hiB = math.Inf(1)
		}
		for j := first; j < n && col[j] < hiB; j++ {
			if dead[j] {
				continue
			}
			sum += intervalMass(col[j], b, lo[0], hi[0])
		}
		return sum / float64(e.live)
	}
	// With no prune dimension the bound is +Inf and the comparison below
	// never fires: the scan degrades to the full-scan fallback.
	first, bound := 0, math.Inf(1)
	pruneCol := e.cols[0]
	if k := e.pruneDim; k >= 0 {
		first, bound = e.pruneRun(lo[k], hi[k])
		pruneCol = e.cols[k]
	}
	d := e.dim
	sum := 0.0
	for j := first; j < n; j++ {
		if pruneCol[j] >= bound {
			break
		}
		if dead[j] {
			continue
		}
		term := 1.0
		for i := 0; i < d; i++ {
			m := intervalMass(e.cols[i][j], e.bw[i], lo[i], hi[i])
			if m == 0 {
				term = 0
				break
			}
			term *= m
		}
		sum += term
	}
	return sum / float64(e.live)
}

// ProbBoxNaive answers the same query as ProbBox but always scans every
// kernel — the O(d|R|) cost of Theorem 2 without the sorted pruning. It
// exists as the executable specification the pruned path is differentially
// tested against and as the ablation-benchmark baseline; library code
// should call ProbBox.
func (e *Estimator) ProbBoxNaive(lo, hi []float64) float64 {
	if len(lo) != e.dim || len(hi) != e.dim {
		panic(fmt.Sprintf("kernel: box dims %d,%d, model dim %d", len(lo), len(hi), e.dim))
	}
	sum := 0.0
	for j, dead := range e.dead {
		if dead {
			continue
		}
		term := 1.0
		for i := 0; i < e.dim; i++ {
			m := intervalMass(e.cols[i][j], e.bw[i], lo[i], hi[i])
			if m == 0 {
				term = 0
				break
			}
			term *= m
		}
		sum += term
	}
	return sum / float64(e.live)
}

// CenterMass returns the mass one kernel centered at c places on the box
// [lo, hi] under the model's bandwidths: one term of ProbBox's sum, with
// the same per-center arithmetic and not divided by |R|. Mass-weighted
// aggregates over Centers use it.
func (e *Estimator) CenterMass(c window.Point, lo, hi []float64) float64 {
	if len(c) != e.dim || len(lo) != e.dim || len(hi) != e.dim {
		panic(fmt.Sprintf("kernel: center dim %d, box dims %d,%d, model dim %d", len(c), len(lo), len(hi), e.dim))
	}
	for i := range lo {
		if hi[i] <= lo[i] {
			return 0
		}
	}
	term := 1.0
	for i, t := range c {
		m := intervalMass(t, e.bw[i], lo[i], hi[i])
		if m == 0 {
			return 0
		}
		term *= m
	}
	return term
}

// centeredBox fills lo/hi with the box [p-r, p+r].
func centeredBox(lo, hi []float64, p window.Point, r float64) {
	for i := range lo {
		lo[i] = p[i] - r
		hi[i] = p[i] + r
	}
}

// Prob returns the probability mass of the centered box [p-r, p+r].
// The query boxes live on the stack for d ≤ maxStackDim, so those calls
// allocate nothing; larger dimensionalities use heap scratch. A point of
// the wrong dimensionality panics.
func (e *Estimator) Prob(p window.Point, r float64) float64 {
	if len(p) != e.dim {
		panic(fmt.Sprintf("kernel: point dim %d, model dim %d", len(p), e.dim))
	}
	var loBuf, hiBuf [maxStackDim]float64
	var lo, hi []float64
	if e.dim <= maxStackDim {
		lo, hi = loBuf[:e.dim], hiBuf[:e.dim]
	} else {
		lo, hi = make([]float64, e.dim), make([]float64, e.dim)
	}
	centeredBox(lo, hi, p, r)
	return e.probBox(lo, hi)
}

// Count answers the range query N(p,r) = P[p-r,p+r]·|W| (Equation 4): the
// estimated number of window values within distance r of p under the L∞
// metric the paper's box queries induce.
func (e *Estimator) Count(p window.Point, r float64) float64 {
	return e.Prob(p, r) * e.wcount
}

// CountBox is Count for an explicit box.
func (e *Estimator) CountBox(lo, hi []float64) float64 {
	return e.ProbBox(lo, hi) * e.wcount
}

// NewQuerier returns e itself: the model answers its own queries.
//
// Deprecated: query the Estimator directly. Kept only because the
// benchmark harness in bench/ still calls it.
func (e *Estimator) NewQuerier() *Estimator { return e }
